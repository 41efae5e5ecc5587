/**
 * @file
 * Equivalence suite for the edit-script engine
 * (align/edit_script.hh): the bit-vector walk is pinned byte-for-byte
 * to the reference flat DP — identical scripts in deterministic mode,
 * identical scripts AND identical Rng consumption in random
 * tie-break mode — on synthetic pairs, on every pair a calibrate →
 * simulate → reconstruct workload feeds it, and on the edge cases
 * (empty strands, word-boundary lengths, distant pairs, oversized
 * traces). editOpsWalk is pinned the same way: its visits, reversed,
 * are the reference script.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "align/edit_distance.hh"
#include "align/edit_script.hh"
#include "analysis/accuracy.hh"
#include "base/rng.hh"
#include "core/channel_simulator.hh"
#include "core/ids_model.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"
#include "reconstruct/iterative.hh"

namespace dnasim
{
namespace
{

using align_detail::editOpsReference;
using align_detail::EditOpsStats;

/** Reference script via the pinned flat DP. */
std::vector<EditOp>
refScript(std::string_view ref, std::string_view copy, Rng *rng)
{
    std::vector<EditOp> out;
    editOpsReference(ref, copy, rng, out);
    return out;
}

/** Engine script through the public dispatch. */
std::vector<EditOp>
engineScript(std::string_view ref, std::string_view copy, Rng *rng)
{
    std::vector<EditOp> out;
    editOpsInto(ref, copy, rng, out);
    return out;
}

/**
 * editOpsWalk()'s visits, reversed into a reference-order script.
 * Also checks the copy positions: each Equal, Substitute and Insert
 * consumes the copy index just before the previous one, and a Delete
 * reports the copy characters before it.
 */
std::vector<EditOp>
walkScript(const MyersPattern &pattern, std::string_view ref,
           std::string_view copy)
{
    std::vector<EditOp> out;
    size_t next_j = copy.size();
    editOpsWalk(pattern, ref, copy, nullptr,
                [&](EditOpType type, size_t i, size_t j) {
                    if (type == EditOpType::Delete) {
                        EXPECT_EQ(j, next_j);
                    } else {
                        EXPECT_EQ(j + 1, next_j);
                        next_j = j;
                    }
                    out.push_back(
                        {type, i,
                         type == EditOpType::Insert ? '\0' : ref[i],
                         type == EditOpType::Delete ? '\0' : copy[j]});
                });
    EXPECT_EQ(next_j, 0u);
    std::reverse(out.begin(), out.end());
    return out;
}

struct ScriptCase
{
    size_t len;
    double error_rate;
};

class EditScriptEquivalence
    : public ::testing::TestWithParam<ScriptCase>
{};

/**
 * Deterministic mode: the bit-vector walk must reproduce the flat
 * DP's diagonal > delete > insert backtrace exactly, op for op.
 */
TEST_P(EditScriptEquivalence, DeterministicScriptsIdentical)
{
    auto [len, rate] = GetParam();
    StrandFactory factory;
    Rng rng(101 + len);
    ErrorProfile profile = ErrorProfile::uniform(rate, len);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 25; ++trial) {
        Strand ref = factory.make(len, rng);
        Strand copy = channel.transmit(ref, rng);
        EXPECT_EQ(engineScript(ref, copy, nullptr),
                  refScript(ref, copy, nullptr))
            << ref << " vs " << copy;
    }
}

/**
 * Random tie-break mode: given the same Rng stream the walk must
 * produce the identical script AND leave the engine in the identical
 * state (same candidate sets at every backtrace step means the same
 * draws in the same order).
 */
TEST_P(EditScriptEquivalence, TieBreakScriptsAndDrawsIdentical)
{
    auto [len, rate] = GetParam();
    StrandFactory factory;
    Rng rng(211 + len);
    ErrorProfile profile = ErrorProfile::uniform(rate, len);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 25; ++trial) {
        Strand ref = factory.make(len, rng);
        Strand copy = channel.transmit(ref, rng);
        const uint64_t seed = 7'000 + trial;
        Rng ref_rng(seed), new_rng(seed);
        EXPECT_EQ(engineScript(ref, copy, &new_rng),
                  refScript(ref, copy, &ref_rng))
            << ref << " vs " << copy;
        EXPECT_TRUE(ref_rng.engine() == new_rng.engine())
            << "Rng consumption diverged for " << ref << " vs "
            << copy;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EditScriptEquivalence,
    ::testing::Values(ScriptCase{10, 0.30}, ScriptCase{63, 0.03},
                      ScriptCase{64, 0.03}, ScriptCase{65, 0.03},
                      ScriptCase{100, 0.01}, ScriptCase{100, 0.10},
                      ScriptCase{127, 0.03}, ScriptCase{128, 0.03},
                      ScriptCase{129, 0.03}, ScriptCase{150, 0.03},
                      ScriptCase{191, 0.10}, ScriptCase{192, 0.10},
                      ScriptCase{193, 0.10}, ScriptCase{300, 0.10},
                      ScriptCase{300, 0.01}, ScriptCase{1000, 0.03}));

TEST(EditScript, EmptyStrands)
{
    // Both orders of emptiness, both modes; no Rng draw may happen
    // (scripts with an empty side are forced).
    const std::pair<std::string, std::string> cases[] = {
        {"", ""}, {"ACGT", ""}, {"", "ACGT"}};
    for (const auto &[ref, copy] : cases) {
        EXPECT_EQ(engineScript(ref, copy, nullptr),
                  refScript(ref, copy, nullptr));
        Rng a(5), b(5);
        EXPECT_EQ(engineScript(ref, copy, &a),
                  refScript(ref, copy, &b));
        EXPECT_TRUE(a.engine() == b.engine());
    }
}

TEST(EditScript, EqualStrands)
{
    const std::string s(137, 'G');
    auto ops = engineScript(s, s, nullptr);
    EXPECT_EQ(ops, refScript(s, s, nullptr));
    EXPECT_EQ(ops.size(), s.size());
    EXPECT_EQ(numErrors(ops), 0u);
}

TEST(EditScript, AllMismatch)
{
    // Every position substituted: distance == length.
    const std::string ref(90, 'A');
    const std::string copy(90, 'C');
    EXPECT_EQ(engineScript(ref, copy, nullptr),
              refScript(ref, copy, nullptr));
    Rng a(9), b(9);
    EXPECT_EQ(engineScript(ref, copy, &a), refScript(ref, copy, &b));
    EXPECT_TRUE(a.engine() == b.engine());
}

TEST(EditScript, LongHomopolymerRuns)
{
    // Homopolymer indels maximize tie-heavy backtraces: every slide
    // of the run is minimal, so candidate sets are fat and any
    // candidate-order or draw-count drift shows up immediately.
    const std::string ref =
        "ACG" + std::string(40, 'T') + "CGA" + std::string(30, 'A') +
        "GTC";
    std::string copy = ref;
    copy.erase(10, 3);   // shrink the T run
    copy.insert(50, "AAAA"); // grow the A run
    EXPECT_EQ(engineScript(ref, copy, nullptr),
              refScript(ref, copy, nullptr));
    for (uint64_t seed = 0; seed < 20; ++seed) {
        Rng a(seed), b(seed);
        EXPECT_EQ(engineScript(ref, copy, &a),
                  refScript(ref, copy, &b));
        EXPECT_TRUE(a.engine() == b.engine());
    }
}

TEST(EditScript, RoundTripsThroughApply)
{
    StrandFactory factory;
    Rng rng(77);
    ErrorProfile profile = ErrorProfile::uniform(0.08, 120);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 30; ++trial) {
        Strand ref = factory.make(120, rng);
        Strand copy = channel.transmit(ref, rng);
        auto det = engineScript(ref, copy, nullptr);
        EXPECT_EQ(applyEditOps(ref, det), copy);
        EXPECT_EQ(numErrors(det), levenshtein(ref, copy));
        auto rnd = engineScript(ref, copy, &rng);
        EXPECT_EQ(applyEditOps(ref, rnd), copy);
        EXPECT_EQ(numErrors(rnd), levenshtein(ref, copy));
    }
}

TEST(EditScript, BitVectorTierDirect)
{
    // Drive the walk below the vector-building dispatch, as
    // consensus voting does: one pattern, many copies.
    StrandFactory factory;
    Rng rng(55);
    ErrorProfile profile = ErrorProfile::uniform(0.05, 150);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    Strand ref = factory.make(150, rng);
    MyersPattern pattern(ref);
    for (int trial = 0; trial < 20; ++trial) {
        Strand copy = channel.transmit(ref, rng);
        EXPECT_EQ(walkScript(pattern, ref, copy),
                  refScript(ref, copy, nullptr));
    }
}

/**
 * The walk against the reference DP at pattern lengths around the
 * 64-row block boundaries and with empty sides, counting one
 * bit-vector script per call with two non-empty sides.
 */
TEST(EditScript, WalkVisitsReversedAreTheReferenceScript)
{
    auto &st = EditOpsStats::get();
    auto expectWalk = [&](const std::string &ref,
                          const std::string &copy) {
        const uint64_t bitvec_before = st.bitvec.value();
        const MyersPattern pattern(ref);
        EXPECT_EQ(walkScript(pattern, ref, copy),
                  refScript(ref, copy, nullptr))
            << ref << " vs " << copy;
        const bool trivial = ref.empty() || copy.empty();
        EXPECT_EQ(st.bitvec.value() - bitvec_before, trivial ? 0u : 1u)
            << ref << " vs " << copy;
    };

    // Unconstrained strands: the factory's GC and homopolymer
    // constraints admit no strand of length 1.
    Rng rng(404);
    auto random = [&](size_t len) {
        Strand s(len, 'A');
        for (char &c : s)
            c = kBaseChars[rng.index(kNumBases)];
        return s;
    };
    for (size_t len : {1, 63, 64, 65, 128, 129}) {
        ErrorProfile profile = ErrorProfile::uniform(0.08, len);
        IdsChannelModel channel = IdsChannelModel::naive(profile);
        for (int trial = 0; trial < 12; ++trial) {
            const Strand ref = random(len);
            expectWalk(ref, channel.transmit(ref, rng));
            // Copy lengths across the same boundaries.
            expectWalk(ref, random(len + trial % 3));
        }
        const Strand ref = random(len);
        expectWalk(ref, "");
        expectWalk("", ref);
    }
    expectWalk("", "");
}

TEST(EditScript, NonAcgtReferencePanics)
{
    // References are ACGT: building the pattern's base tables
    // panics on any other character, with or without an Rng.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string n_ref = "ACGTNNACGTACGT";
    const std::string copy = "ACGTACGTACGGT";
    std::vector<EditOp> ops;
    EXPECT_DEATH(editOpsInto(n_ref, copy, nullptr, ops),
                 "invalid base character 'N'");
    Rng rng(3);
    EXPECT_DEATH(editOpsInto(n_ref, copy, &rng, ops),
                 "invalid base character 'N'");
    EXPECT_DEATH(editOps("ACGX", "ACGT"), "invalid base character 'X'");
}

TEST(EditScript, EngineSelection)
{
    // Every non-empty pair takes the bit-vector walk, with or
    // without an Rng and however distant the copy, and yields the
    // reference script.
    auto &st = EditOpsStats::get();
    const std::string ref = "ACGTTGCAACGTTGCA";
    const std::string copy = "ACGTGCAACGTTGGCA";
    const std::string far(ref.size(), 'A');
    for (const std::string *other : {&copy, &far}) {
        const uint64_t bitvec_before = st.bitvec.value();
        EXPECT_EQ(engineScript(ref, *other, nullptr),
                  refScript(ref, *other, nullptr));
        Rng a(21), b(21);
        EXPECT_EQ(engineScript(ref, *other, &a),
                  refScript(ref, *other, &b));
        EXPECT_TRUE(a.engine() == b.engine());
        EXPECT_EQ(st.bitvec.value(), bitvec_before + 2) << *other;
    }
}

/**
 * Drive one pair through both editOpsInto() overloads — one-shot and
 * MyersPattern reuse — and the reference DP. With an Rng each call
 * draws from its own copy of @p rng's stream; the scripts and the
 * streams' end states must all agree. @p rng advances as the
 * reference consumed it, so a caller can chain pairs on one stream.
 */
void
expectOverloadsMatchReference(const Strand &ref, const Strand &copy,
                              const MyersPattern &pattern, Rng *rng)
{
    std::optional<Rng> one_shot_rng, reuse_rng;
    if (rng != nullptr) {
        one_shot_rng = *rng;
        reuse_rng = *rng;
    }
    std::vector<EditOp> expected, one_shot, reused;
    editOpsReference(ref, copy, rng, expected);
    editOpsInto(ref, copy, rng ? &*one_shot_rng : nullptr, one_shot);
    editOpsInto(pattern, ref, copy, rng ? &*reuse_rng : nullptr,
                reused);
    EXPECT_EQ(one_shot, expected) << ref << " vs " << copy;
    EXPECT_EQ(reused, expected) << ref << " vs " << copy;
    if (rng != nullptr) {
        EXPECT_TRUE(one_shot_rng->engine() == rng->engine())
            << "one-shot Rng consumption diverged for " << ref
            << " vs " << copy;
        EXPECT_TRUE(reuse_rng->engine() == rng->engine())
            << "pattern-reuse Rng consumption diverged for " << ref
            << " vs " << copy;
    }
}

/**
 * A whole paper-loop workload: 60 generated wetlab clusters (seed
 * 11), calibrated and re-simulated with the second-order model (seed
 * 13), then reconstructed by Iterative (seed 17). Its pairs are the
 * ones calibration (tie-break) and consensus voting (deterministic)
 * feed the engine in the pipeline.
 */
struct PaperLoopWorkload
{
    Dataset simulated;
    std::vector<Strand> estimates;

    static const PaperLoopWorkload &
    get()
    {
        static const PaperLoopWorkload w = [] {
            WetlabConfig config;
            config.num_clusters = 60;
            Rng generate_rng(11);
            Dataset real =
                NanoporeDatasetGenerator(config).generate(generate_rng);
            IdsChannelModel model = IdsChannelModel::secondOrder(
                ErrorProfiler().calibrate(real));
            PaperLoopWorkload out;
            Rng simulate_rng(13);
            out.simulated =
                ChannelSimulator(model).simulateLike(real, simulate_rng);
            Rng reconstruct_rng(17);
            out.estimates = reconstructAll(out.simulated, Iterative(),
                                           reconstruct_rng);
            return out;
        }();
        return w;
    }
};

TEST(EditScript, CalibrationPairsMatchReference)
{
    // Every (reference, copy) pair with the per-cluster stream
    // calibrate() forks, consumed copy after copy as it does.
    const PaperLoopWorkload &w = PaperLoopWorkload::get();
    const Rng root(kProfilerSeed);
    size_t pairs = 0;
    MyersPattern pattern;
    for (size_t i = 0; i < w.simulated.size(); ++i) {
        const Cluster &cluster = w.simulated[i];
        if (cluster.reference.empty())
            continue;
        Rng rng = root.fork(i);
        pattern.assign(cluster.reference);
        for (const Strand &copy : cluster.copies) {
            expectOverloadsMatchReference(cluster.reference, copy,
                                          pattern, &rng);
            ++pairs;
        }
    }
    EXPECT_GT(pairs, 1000u);
}

TEST(EditScript, IterativeEstimatePairsMatchReference)
{
    // Every (Iterative estimate, copy) pair, deterministic as the
    // consensus vote calls it and with a per-cluster stream.
    const PaperLoopWorkload &w = PaperLoopWorkload::get();
    ASSERT_EQ(w.estimates.size(), w.simulated.size());
    const Rng root(29);
    size_t pairs = 0;
    MyersPattern pattern;
    for (size_t i = 0; i < w.simulated.size(); ++i) {
        const Strand &estimate = w.estimates[i];
        if (estimate.empty())
            continue;
        Rng rng = root.fork(i);
        pattern.assign(estimate);
        for (const Strand &copy : w.simulated[i].copies) {
            expectOverloadsMatchReference(estimate, copy, pattern,
                                          nullptr);
            expectOverloadsMatchReference(estimate, copy, pattern,
                                          &rng);
            ++pairs;
        }
    }
    EXPECT_GT(pairs, 1000u);
}

/**
 * The pairs whose tie-breaks used to leave the band for the flat DP:
 * unrelated strands, 40-60 % noise and one side of 1-3 bases. Script
 * and Rng state through both overloads, against the reference DP.
 */
TEST(EditScript, DistantPairsMatchReference)
{
    Rng rng(0xd157);
    auto random = [&](size_t len) {
        Strand s(len, 'A');
        for (char &c : s)
            c = kBaseChars[rng.index(kNumBases)];
        return s;
    };
    Rng stream(0xd158);
    auto expectPair = [&](const Strand &ref, const Strand &copy) {
        expectOverloadsMatchReference(ref, copy, MyersPattern(ref),
                                      &stream);
    };
    for (int trial = 0; trial < 8; ++trial) {
        const Strand ref = random(110);
        for (size_t len : {110, 60, 160})
            expectPair(ref, random(len));
        for (double rate : {0.4, 0.5, 0.6}) {
            const IdsChannelModel channel = IdsChannelModel::naive(
                ErrorProfile::uniform(rate, ref.size()));
            expectPair(ref, channel.transmit(ref, rng));
        }
        for (size_t len : {1, 2, 3}) {
            const Strand tiny = random(len);
            expectPair(ref, tiny);
            expectPair(tiny, ref);
            expectPair(tiny, random(len));
        }
    }
}

/**
 * A tie-break trace past the 16 MiB scratch cap (32 B per 64 rows per
 * column: 94 blocks x 6,001 columns here) still yields a valid
 * minimum script, and its scratch is released.
 */
TEST(EditScript, OversizedTieBreakTraceIsValidAndReleased)
{
    Rng rng(0x5111);
    Strand ref(6000, 'A');
    for (char &c : ref)
        c = kBaseChars[rng.index(kNumBases)];
    const IdsChannelModel channel =
        IdsChannelModel::naive(ErrorProfile::uniform(0.05, ref.size()));
    const Strand copy = channel.transmit(ref, rng);
    auto &shrinks = EditOpsStats::get().shrinks;
    const uint64_t before = shrinks.value();
    const std::vector<EditOp> ops = engineScript(ref, copy, &rng);
    EXPECT_EQ(applyEditOps(ref, ops), copy);
    EXPECT_EQ(numErrors(ops), levenshtein(ref, copy));
    EXPECT_GT(shrinks.value(), before);
}

TEST(EditScript, StatsCountTierUsage)
{
    // One bit-vector script per call, with or without an Rng.
    auto &st = EditOpsStats::get();
    const std::string ref = "ACGTACGTACGTACGTACGTACGTACGT";
    std::string copy = ref;
    copy[5] = 'A';

    const uint64_t bitvec_before = st.bitvec.value();
    const uint64_t cells_before = st.cells.value();
    (void)engineScript(ref, copy, nullptr);
    Rng rng(13);
    (void)engineScript(ref, copy, &rng);
    EXPECT_EQ(st.bitvec.value(), bitvec_before + 2);
    EXPECT_GT(st.cells.value(), cells_before);
}

} // anonymous namespace
} // namespace dnasim
