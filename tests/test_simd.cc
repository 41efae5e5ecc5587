/**
 * @file
 * Tests of the batched Myers kernels and their runtime SIMD
 * dispatcher: batch-vs-scalar bit-equality on every tier this CPU
 * supports (forced via the override), edge shapes (ragged lengths,
 * word boundaries, limit = 0, empty texts, non-ACGT texts),
 * steady-state allocation freedom, and cluster/reconstruct
 * byte-determinism across tiers and thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "align/edit_distance.hh"
#include "analysis/accuracy.hh"
#include "align/myers_batch.hh"
#include "align/simd_dispatch.hh"
#include "base/rng.hh"
#include "cluster/greedy_cluster.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "data/strand_factory.hh"
#include "obs/stats.hh"
#include "par/thread_pool.hh"
#include "reconstruct/bma.hh"

namespace dnasim
{
namespace
{

/** Restore the default thread count when a test scope exits. */
struct ThreadGuard
{
    explicit ThreadGuard(size_t n) { par::setThreads(n); }
    ~ThreadGuard() { par::setThreads(0); }
};

/** Force a SIMD tier for a scope, restoring auto selection after. */
struct TierGuard
{
    explicit TierGuard(SimdTier tier) { setSimdTierOverride(tier); }
    ~TierGuard() { setSimdTierOverride(std::nullopt); }
};

/**
 * Uniform random ACGT strand of exact length @p len — unlike
 * StrandFactory, no GC/homopolymer constraints, so degenerate
 * lengths (0, 1, 2) are fine.
 */
std::string
randomStrand(size_t len, Rng &rng)
{
    std::string s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i)
        s += "ACGT"[rng.index(4)];
    return s;
}

/** Every tier the machine running the tests can execute. */
std::vector<SimdTier>
supportedTiers()
{
    std::vector<SimdTier> tiers{SimdTier::Scalar};
    const int widest = static_cast<int>(detectedSimdTier());
    if (widest >= static_cast<int>(SimdTier::Avx2))
        tiers.push_back(SimdTier::Avx2);
    if (widest >= static_cast<int>(SimdTier::Avx512))
        tiers.push_back(SimdTier::Avx512);
    return tiers;
}

/** Batch results must equal per-text scalar results bit-for-bit. */
void
expectBatchMatchesScalar(const MyersPattern &pattern,
                         const std::vector<std::string> &texts,
                         size_t limit, const char *what)
{
    std::vector<std::string_view> views(texts.begin(), texts.end());
    std::vector<size_t> got(views.size(), ~size_t{0});
    myersBatchDistanceBounded(pattern, views, limit, got);
    for (size_t i = 0; i < views.size(); ++i) {
        EXPECT_EQ(got[i], pattern.distanceBounded(views[i], limit))
            << what << ": tier "
            << simdTierName(activeSimdTier()) << ", text " << i
            << " of " << views.size() << ", limit " << limit;
    }
}

TEST(SimdDispatch, ParseAndNames)
{
    EXPECT_EQ(parseSimdTier("scalar"), SimdTier::Scalar);
    EXPECT_EQ(parseSimdTier("avx2"), SimdTier::Avx2);
    EXPECT_EQ(parseSimdTier("avx512"), SimdTier::Avx512);
    EXPECT_EQ(parseSimdTier("auto"), std::nullopt);
    EXPECT_EQ(parseSimdTier("sse9"), std::nullopt);
    for (SimdTier t :
         {SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512})
        EXPECT_EQ(parseSimdTier(simdTierName(t)), t);
}

TEST(SimdDispatch, OverrideAndClamp)
{
    // The tier with no override set: the detected one unless
    // DNASIM_SIMD asks for another.
    setSimdTierOverride(std::nullopt);
    const SimdTier unforced = activeSimdTier();
    if (std::getenv("DNASIM_SIMD") == nullptr) {
        EXPECT_EQ(unforced, detectedSimdTier());
    }
    {
        TierGuard guard(SimdTier::Scalar);
        EXPECT_EQ(activeSimdTier(), SimdTier::Scalar);
    }
    {
        // Above-hardware requests clamp to the detected tier.
        TierGuard guard(SimdTier::Avx512);
        EXPECT_EQ(activeSimdTier(),
                  std::min(static_cast<int>(SimdTier::Avx512),
                           static_cast<int>(detectedSimdTier())) ==
                          static_cast<int>(SimdTier::Avx512)
                      ? SimdTier::Avx512
                      : detectedSimdTier());
    }
    EXPECT_FALSE(applySimdOverride("sse9"));
    EXPECT_TRUE(applySimdOverride("scalar"));
    EXPECT_EQ(activeSimdTier(), SimdTier::Scalar);
    EXPECT_TRUE(applySimdOverride("auto"));
    EXPECT_EQ(activeSimdTier(), unforced);
}

TEST(MyersBatch, MatchesScalarRandomized)
{
    Rng rng(0x51'3d);
    // Pattern lengths straddle the 64-base word boundary and cover
    // one-, two- and multi-block columns.
    const size_t pattern_lens[] = {1,  5,  33,  63,  64, 65,
                                   100, 127, 128, 129, 300};
    for (SimdTier tier : supportedTiers()) {
        TierGuard guard(tier);
        for (size_t m : pattern_lens) {
            const Strand pat = randomStrand(m, rng);
            const MyersPattern pattern(pat);
            // Ragged texts: similar, dissimilar, shorter, longer.
            std::vector<std::string> texts;
            for (size_t i = 0; i < 13; ++i) {
                if (i % 3 == 0) {
                    texts.push_back(
                        randomStrand(rng.index(2 * m + 8), rng));
                } else {
                    std::string t = pat;
                    const size_t edits = rng.index(m / 2 + 2);
                    for (size_t e = 0; e < edits && !t.empty(); ++e) {
                        const size_t pos = rng.index(t.size());
                        switch (rng.index(3)) {
                          case 0:
                            t[pos] = "ACGT"[rng.index(4)];
                            break;
                          case 1:
                            t.erase(pos, 1);
                            break;
                          default:
                            t.insert(pos, 1, "ACGT"[rng.index(4)]);
                            break;
                        }
                    }
                    texts.push_back(std::move(t));
                }
            }
            for (size_t limit :
                 {size_t{0}, size_t{2}, m / 8 + 1, m,
                  std::numeric_limits<size_t>::max()}) {
                expectBatchMatchesScalar(pattern, texts, limit,
                                         "randomized");
            }
        }
    }
}

TEST(MyersBatch, EdgeShapes)
{
    for (SimdTier tier : supportedTiers()) {
        TierGuard guard(tier);
        const MyersPattern pattern{std::string_view{"ACGTACGTAC"}};

        // Empty batch: no output written, no crash.
        myersBatchDistanceBounded(pattern, {}, 3, {});

        // Empty texts mixed into a batch.
        expectBatchMatchesScalar(
            pattern, {"", "ACGTACGTAC", "", "TTTT", "ACGT"}, 3,
            "empty texts");

        // limit = 0: only exact matches accepted.
        expectBatchMatchesScalar(
            pattern,
            {"ACGTACGTAC", "ACGTACGTAT", "ACGTACGTAC", "A", "",
             "ACGTACGTACA"},
            0, "limit 0");

        // Single text (scalar-served tail) and partial groups.
        expectBatchMatchesScalar(pattern, {"ACGTACGAAC"}, 2,
                                 "single text");
        expectBatchMatchesScalar(
            pattern, {"ACGTA", "ACGTACGTACGT", "CCCCCCCCCC"}, 4,
            "partial group");

        // Non-ACGT characters in texts gather the zero match row.
        expectBatchMatchesScalar(
            pattern,
            {"ACGTNNGTAC", "NNNNNNNNNN", "ACGTACGTAC", "acgtacgtac"},
            8, "non-ACGT texts");

        // Empty pattern: distance is the text length.
        const MyersPattern empty{std::string_view{""}};
        expectBatchMatchesScalar(empty, {"", "ACGT", "A"}, 2,
                                 "empty pattern");

        // Length gaps beyond the limit resolve via the certified
        // lower bound without running the column.
        expectBatchMatchesScalar(
            pattern,
            {"AC", "ACGTACGTACACGTACGTAC", "ACGTACGTAC", "ACG"}, 1,
            "length-gap prechecks");
    }
}

TEST(MyersBatch, TotalDistanceMatchesScalarSum)
{
    Rng rng(0xabcd);
    for (SimdTier tier : supportedTiers()) {
        TierGuard guard(tier);
        for (size_t m : {size_t{40}, size_t{150}}) {
            const Strand pat = randomStrand(m, rng);
            const MyersPattern pattern(pat);
            std::vector<std::string> texts;
            for (size_t i = 0; i < 11; ++i)
                texts.push_back(
                    randomStrand(1 + rng.index(2 * m), rng));
            std::vector<std::string_view> views(texts.begin(),
                                                texts.end());
            size_t expected = 0;
            for (const auto &t : texts)
                expected += pattern.distance(t);
            EXPECT_EQ(myersBatchTotalDistance(pattern, views),
                      expected)
                << "tier " << simdTierName(tier) << ", m = " << m;
        }
    }
}

TEST(MyersBatch, SteadyStateIsAllocationFree)
{
    Rng rng(7);
    const Strand pat = randomStrand(150, rng);
    const MyersPattern pattern(pat);
    std::vector<std::string> texts;
    for (size_t i = 0; i < 32; ++i)
        texts.push_back(randomStrand(140 + rng.index(20), rng));
    std::vector<std::string_view> views(texts.begin(), texts.end());
    std::vector<size_t> out(views.size());

    auto &allocs = obs::Registry::global().counter("align.batch.allocs");
    // Warm-up grows every thread-local buffer to the working size;
    // after that the batch path must not touch the allocator.
    myersBatchDistanceBounded(pattern, views, 12, out);
    myersBatchTotalDistance(pattern, views);
    const uint64_t before = allocs.value();
    for (int round = 0; round < 10; ++round) {
        myersBatchDistanceBounded(pattern, views, 12, out);
        myersBatchTotalDistance(pattern, views);
    }
    EXPECT_EQ(allocs.value(), before)
        << "batch scratch reallocated in steady state";
}

/** A small calibrated channel for the cross-tier determinism test. */
struct E2eFixture
{
    std::vector<Strand> refs;
    ErrorProfile profile = ErrorProfile::uniform(0.06, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);

    E2eFixture()
    {
        Rng rng(99);
        StrandFactory factory;
        for (size_t i = 0; i < 48; ++i)
            refs.push_back(factory.make(110, rng));
    }

    Dataset
    simulate() const
    {
        ChannelSimulator sim(model);
        FixedCoverage coverage(8);
        Rng rng(0x5eed);
        return sim.simulate(refs, coverage, rng);
    }
};

TEST(SimdDeterminism, ClusterAndReconstructAcrossTiersAndThreads)
{
    E2eFixture fx;
    Dataset data;
    std::vector<Strand> pool;
    {
        ThreadGuard guard(1);
        data = fx.simulate();
        pool = data.pooledReads();
    }

    auto cluster_run = [&] {
        ClusterOptions options;
        options.max_probes = 32;
        std::string s;
        for (const auto &c : clusterReads(pool, options)) {
            s += c.representative;
            s += ':';
            for (size_t m : c.members) {
                s += std::to_string(m);
                s += ',';
            }
            s += '\n';
        }
        return s;
    };
    auto reconstruct_run = [&] {
        BmaLookahead algo;
        Rng rng(0x4ec0);
        std::string s;
        for (const auto &strand : reconstructAll(data, algo, rng)) {
            s += strand;
            s += '\n';
        }
        return s;
    };

    std::string cluster_ref;
    std::string reconstruct_ref;
    {
        ThreadGuard threads(1);
        TierGuard tier(SimdTier::Scalar);
        cluster_ref = cluster_run();
        reconstruct_ref = reconstruct_run();
    }
    for (SimdTier tier : supportedTiers()) {
        for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
            ThreadGuard tguard(threads);
            TierGuard sguard(tier);
            EXPECT_EQ(cluster_run(), cluster_ref)
                << "cluster: tier " << simdTierName(tier) << " at "
                << threads << " threads";
            EXPECT_EQ(reconstruct_run(), reconstruct_ref)
                << "reconstruct: tier " << simdTierName(tier)
                << " at " << threads << " threads";
        }
    }
}

} // namespace
} // namespace dnasim
