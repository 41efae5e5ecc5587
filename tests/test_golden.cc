/**
 * @file
 * Committed golden digests of the channel's outputs, of the gestalt
 * matching blocks and the calibrated profile text, of the clusterer's
 * placements, of every reconstructor's estimates and of the Rng's
 * sample streams.
 *
 * The other determinism tests compare runs only with each other, so a
 * change that shifts every output the same way at every thread count
 * passes them. These pin the absolute bytes: each digest is an FNV-64
 * over a fixed-seed output, computed once and committed.
 *
 * Update flow: a mismatch prints the new digest. Change a constant
 * only for a change that is meant to alter the drawn numbers, and say
 * why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "align/edit_script.hh"
#include "align/gestalt.hh"
#include "analysis/accuracy.hh"
#include "base/rng.hh"
#include "base/strand_pool.hh"
#include "cluster/recluster.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/dnasimulator_model.hh"
#include "core/ids_model.hh"
#include "core/lineage_log.hh"
#include "core/profile_io.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"
#include "obs/stats.hh"
#include "par/thread_pool.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/consensus.hh"
#include "reconstruct/divider_bma.hh"
#include "reconstruct/iterative.hh"
#include "reconstruct/majority.hh"
#include "reconstruct/twoway_iterative.hh"
#include "reconstruct/weighted_iterative.hh"

namespace dnasim
{
namespace
{

/** FNV-1a, 64-bit, fed field by field (never struct padding). */
class Fnv64
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    pod(T value)
    {
        bytes(&value, sizeof(value));
    }

    void
    str(std::string_view s)
    {
        pod(static_cast<uint64_t>(s.size()));
        bytes(s.data(), s.size());
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Fails with the digest to commit when @p actual drifts. */
void
expectDigest(const std::string &what, uint64_t actual, uint64_t golden)
{
    EXPECT_EQ(actual, golden)
        << what << ": new digest " << hex(actual) << ", golden "
        << hex(golden);
}

uint64_t
datasetDigest(const Dataset &data)
{
    Fnv64 h;
    h.pod(static_cast<uint64_t>(data.size()));
    for (const Cluster &c : data.clusters()) {
        h.str(c.reference);
        h.pod(static_cast<uint64_t>(c.copies.size()));
        for (const Strand &copy : c.copies)
            h.str(copy);
    }
    return h.value();
}

uint64_t
lineageDigest(const LineageLog &log)
{
    Fnv64 h;
    h.pod(static_cast<uint64_t>(log.numClusters()));
    for (size_t i = 0; i < log.numClusters(); ++i) {
        const ClusterLineage &c = log.cluster(i);
        h.pod(static_cast<uint64_t>(c.events.size()));
        for (const LineageEvent &e : c.events) {
            h.pod(e.ref_pos);
            h.pod(e.run_length);
            h.pod(static_cast<uint8_t>(e.type));
            h.pod(e.ref_base);
            h.pod(e.obs_base);
        }
        for (uint32_t end : c.read_event_end)
            h.pod(end);
    }
    return h.value();
}

/** Restore the default thread count when a test scope exits. */
struct ThreadGuard
{
    explicit ThreadGuard(size_t n) { par::setThreads(n); }
    ~ThreadGuard() { par::setThreads(0); }
};

constexpr size_t kThreadCounts[] = {1, 8};

/** The profile the paper's ladder calibrates from a wetlab run. */
const ErrorProfile &
calibratedProfile()
{
    static const ErrorProfile profile = [] {
        WetlabConfig config;
        config.num_clusters = 50;
        NanoporeDatasetGenerator generator(config);
        Rng rng(0x9e4);
        return ErrorProfiler().calibrate(generator.generate(rng));
    }();
    return profile;
}

std::vector<Strand>
references(size_t count, size_t len, uint64_t seed)
{
    Rng rng(seed);
    return StrandFactory().makeMany(count, len, rng);
}

struct ChannelDigests
{
    uint64_t data = 0;
    uint64_t lineage = 0;
};

/**
 * simulate() @p refs at threads 1 and 8, lineage off and on. Every
 * run must produce the same dataset, and every recorded run the same
 * events; returns their digests.
 */
ChannelDigests
simulateDigests(const ErrorModel &model, const std::vector<Strand> &refs,
                const CoverageModel &coverage, uint64_t seed)
{
    ChannelSimulator sim(model);
    ChannelDigests first;
    bool have_first = false;
    for (size_t threads : kThreadCounts) {
        ThreadGuard guard(threads);
        Rng plain_rng(seed);
        const uint64_t plain =
            datasetDigest(sim.simulate(refs, coverage, plain_rng));
        Rng logged_rng(seed);
        LineageLog log;
        const uint64_t logged = datasetDigest(
            sim.simulate(refs, coverage, logged_rng, &log));
        EXPECT_EQ(plain, logged)
            << model.name() << ": lineage changed the data at "
            << threads << " threads";
        const ChannelDigests d{plain, lineageDigest(log)};
        if (!have_first) {
            first = d;
            have_first = true;
            continue;
        }
        EXPECT_EQ(d.data, first.data)
            << model.name() << " data at " << threads << " threads";
        EXPECT_EQ(d.lineage, first.lineage)
            << model.name() << " lineage at " << threads << " threads";
    }
    return first;
}

void
expectChannel(const std::string &what, const ChannelDigests &d,
              uint64_t golden_data, uint64_t golden_lineage)
{
    expectDigest(what + " data", d.data, golden_data);
    expectDigest(what + " lineage", d.lineage, golden_lineage);
}

TEST(Golden, CalibratedLadderModels)
{
    const ErrorProfile &profile = calibratedProfile();
    ASSERT_EQ(profile.design_length, 110u);
    const auto refs = references(48, 110, 0x901d);
    FixedCoverage coverage(6);
    expectChannel("naive",
                  simulateDigests(IdsChannelModel::naive(profile), refs,
                                  coverage, 0x51),
                  0x951a96c173ee4992,
                  0xee023dea3e9f7088);
    expectChannel("conditional",
                  simulateDigests(IdsChannelModel::conditional(profile),
                                  refs, coverage, 0x52),
                  0xf4a3315c6bf6a91d,
                  0x7c0a64228ceb0fb4);
    expectChannel("skew",
                  simulateDigests(IdsChannelModel::skew(profile), refs,
                                  coverage, 0x53),
                  0xfeae59530c0ce6a1,
                  0xe4c389d4e47189a3);
    expectChannel("second-order",
                  simulateDigests(IdsChannelModel::secondOrder(profile),
                                  refs, coverage, 0x54),
                  0x4fd73cabf04ddde5,
                  0x57a61fda13ff7a15);
    expectChannel("contextual",
                  simulateDigests(IdsChannelModel::contextual(profile),
                                  refs, coverage, 0x55),
                  0x637380dd488e966a,
                  0xd55321946805936b);
}

TEST(Golden, OffDesignLengthUsesRatesAt)
{
    // References shorter than the profile's design length take the
    // per-position fallback (spatial profiles rescaled by relative
    // position), under Poisson-mixture coverage.
    const ErrorProfile &profile = calibratedProfile();
    const auto refs = references(40, 97, 0x97);
    NegativeBinomialCoverage coverage(7.0, 2.2, 30, 0.05);
    expectChannel("second-order @97",
                  simulateDigests(IdsChannelModel::secondOrder(profile),
                                  refs, coverage, 0x56),
                  0xebb9293c739a144b,
                  0x86677d65728924e2);
    expectChannel("contextual @97",
                  simulateDigests(IdsChannelModel::contextual(profile),
                                  refs, coverage, 0x57),
                  0xc2e6cb3d4561a2cf,
                  0x53b91e3aab5d01b2);
}

TEST(Golden, RoundtripFullModel)
{
    // The archival roundtrip's channel.
    IdsChannelModel model = IdsChannelModel::full(
        NanoporeDatasetGenerator::groundTruthProfile(130, 0.04));
    const auto refs = references(48, 130, 0x130);
    FixedCoverage coverage(8);
    expectChannel("full(130, 0.04)",
                  simulateDigests(model, refs, coverage, 0x58),
                  0x32d7e614afee6508,
                  0x50e0940c3162ece0);
}

TEST(Golden, DnaSimulatorModel)
{
    DnaSimulatorModel model =
        DnaSimulatorModel::fromProfile(calibratedProfile());
    const auto refs = references(48, 110, 0xd5);
    FixedCoverage coverage(6);
    expectChannel("dnasimulator",
                  simulateDigests(model, refs, coverage, 0x59),
                  0x5837cbbb1a3f0cdf,
                  0x2ed70b7d533754d6);
}

TEST(Golden, Wetlab)
{
    for (size_t threads : kThreadCounts) {
        ThreadGuard guard(threads);
        WetlabConfig config;
        config.num_clusters = 40;
        Rng wet_rng(0x5b);
        expectDigest("wetlab @" + std::to_string(threads),
                     datasetDigest(NanoporeDatasetGenerator(config)
                                       .generate(wet_rng)),
                     0x666f7c0e5f229877);
    }
}

/** Digest matchingBlocks() of @p data's pairs, in both argument orders. */
uint64_t
blocksDigest(const Dataset &data)
{
    Fnv64 h;
    auto add = [&h](std::string_view a, std::string_view b) {
        const std::vector<MatchBlock> blocks = matchingBlocks(a, b);
        h.pod(static_cast<uint64_t>(blocks.size()));
        for (const MatchBlock &m : blocks) {
            h.pod(static_cast<uint64_t>(m.a_pos));
            h.pod(static_cast<uint64_t>(m.b_pos));
            h.pod(static_cast<uint64_t>(m.len));
        }
    };
    for (const Cluster &c : data.clusters()) {
        for (const Strand &copy : c.copies) {
            add(c.reference, copy);
            add(copy, c.reference);
        }
    }
    return h.value();
}

/**
 * The gestalt blocks behind every gestalt score, gestalt-aligned
 * error position and calibrated spatial profile.
 */
TEST(Golden, GestaltBlocks)
{
    // Wetlab pairs: bursts, alien and truncated reads.
    WetlabConfig config;
    config.num_clusters = 40;
    Rng wet_rng(0x6e51);
    expectDigest("wetlab blocks",
                 blocksDigest(
                     NanoporeDatasetGenerator(config).generate(wet_rng)),
                 0xcac2d591f712cae3);

    // The roundtrip channel on 130-base strands: a row of the match
    // masks spans three words.
    IdsChannelModel model = IdsChannelModel::full(
        NanoporeDatasetGenerator::groundTruthProfile(130, 0.04));
    FixedCoverage coverage(8);
    Rng channel_rng(0x6e52);
    expectDigest("roundtrip-channel blocks",
                 blocksDigest(ChannelSimulator(model).simulate(
                     references(40, 130, 0x6e53), coverage,
                     channel_rng)),
                 0xa79beb1b5f334df4);
}

/**
 * The calibrated profile itself, as `dnasim calibrate --out` writes
 * it. Golden.CalibratedLadderModels pins it only through what the
 * models then draw.
 */
TEST(Golden, CalibratedProfileText)
{
    WetlabConfig config;
    config.num_clusters = 60;
    Rng rng(0x9e5);
    const Dataset data = NanoporeDatasetGenerator(config).generate(rng);
    for (size_t threads : kThreadCounts) {
        ThreadGuard guard(threads);
        std::ostringstream text;
        writeProfile(ErrorProfiler().calibrate(data), text);
        Fnv64 h;
        h.str(text.str());
        expectDigest("calibrate @" + std::to_string(threads), h.value(),
                     0x6e418d41a7fa2ea1);
    }
}

/**
 * Fold the Appendix-B tie-break scripts of @p copies against @p ref
 * into @p h: through both editOpsInto() overloads, each on its own
 * copy of @p stream consumed copy after copy, plus the next engine
 * word, which pins how many draws the scripts took.
 */
void
hashTieBreakScripts(Fnv64 &h, const Strand &ref,
                    const std::vector<Strand> &copies, const Rng &stream)
{
    const MyersPattern pattern(ref);
    std::vector<EditOp> ops;
    for (const bool reuse : {false, true}) {
        Rng rng = stream;
        for (const Strand &copy : copies) {
            if (reuse)
                editOpsInto(pattern, ref, copy, &rng, ops);
            else
                editOpsInto(ref, copy, &rng, ops);
            h.pod(static_cast<uint64_t>(ops.size()));
            for (const EditOp &op : ops) {
                h.pod(static_cast<uint8_t>(op.type));
                h.pod(static_cast<uint64_t>(op.ref_pos));
                h.pod(op.ref_base);
                h.pod(op.copy_base);
            }
        }
        h.pod(rng.engine()());
    }
}

/**
 * Random tie-break edit scripts: a wetlab set's calibration pairs on
 * calibrate()'s per-cluster forks, then block-boundary and long
 * pattern lengths, unrelated strands, heavy noise and one side of
 * 1-3 bases.
 */
TEST(Golden, TieBreakScripts)
{
    WetlabConfig config;
    config.num_clusters = 60;
    Rng wet_rng(0x7b1e);
    const Dataset wetlab =
        NanoporeDatasetGenerator(config).generate(wet_rng);
    const Rng root(kProfilerSeed);
    Fnv64 calibration;
    for (size_t i = 0; i < wetlab.size(); ++i) {
        if (!wetlab[i].reference.empty())
            hashTieBreakScripts(calibration, wetlab[i].reference,
                                wetlab[i].copies, root.fork(i));
    }
    expectDigest("calibration pairs", calibration.value(),
                 0xf4dde066a230c995);

    // Unconstrained strands: the factory admits no strand of 1-3
    // bases.
    Rng rng(0x7b1f);
    auto random = [&](size_t len) {
        Strand s(len, 'A');
        for (char &c : s)
            c = kBaseChars[rng.index(kNumBases)];
        return s;
    };
    auto noisy = [&](const Strand &ref, double rate, size_t count) {
        const IdsChannelModel channel = IdsChannelModel::naive(
            ErrorProfile::uniform(rate, ref.size()));
        std::vector<Strand> copies;
        for (size_t k = 0; k < count; ++k)
            copies.push_back(channel.transmit(ref, rng));
        return copies;
    };
    Fnv64 shapes;
    uint64_t salt = 0;
    for (size_t len : {127, 128, 129, 191, 192, 193, 1000}) {
        const Strand ref = random(len);
        hashTieBreakScripts(shapes, ref, noisy(ref, 0.06, 4),
                            rng.fork(salt++));
    }
    for (double rate : {0.4, 0.5, 0.6}) {
        const Strand ref = random(110);
        hashTieBreakScripts(shapes, ref, noisy(ref, rate, 4),
                            rng.fork(salt++));
    }
    const Strand ref = random(110);
    hashTieBreakScripts(shapes, ref,
                        {random(110), random(80), random(140), random(1),
                         random(2), random(3)},
                        rng.fork(salt++));
    for (size_t len : {1, 2, 3}) {
        const Strand tiny = random(len);
        hashTieBreakScripts(shapes, tiny, {ref, random(len)},
                            rng.fork(salt++));
    }
    expectDigest("shapes", shapes.value(), 0xeb05549feac3d1cf);
}

/** The ten counters clusterReadsRange() adds to. */
constexpr const char *kClusterCounters[] = {
    "cluster.reads",
    "cluster.comparisons",
    "cluster.merges",
    "cluster.created",
    "cluster.sketch.bands_probed",
    "cluster.sketch.collisions",
    "cluster.sketch.candidates",
    "cluster.sketch.probes",
    "cluster.sketch.verified",
    "cluster.sketch.empty_signatures",
};

std::vector<uint64_t>
clusterCounters()
{
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    std::vector<uint64_t> values;
    for (const char *name : kClusterCounters)
        values.push_back(snap.counter(name));
    return values;
}

/**
 * Digest of one clustering run: whatever @p run folds in itself, the
 * clusters (representative and members in order), every read's
 * assignment, and how much each cluster counter grew during @p run.
 */
template <typename Run>
uint64_t
clusteringDigest(Run run)
{
    const std::vector<uint64_t> before = clusterCounters();
    std::vector<ReadAssignment> assignments;
    Fnv64 h;
    const std::vector<ReadCluster> clusters = run(assignments, h);
    const std::vector<uint64_t> after = clusterCounters();
    h.pod(static_cast<uint64_t>(clusters.size()));
    for (const ReadCluster &c : clusters) {
        h.str(c.representative);
        h.pod(static_cast<uint64_t>(c.members.size()));
        for (size_t m : c.members)
            h.pod(static_cast<uint64_t>(m));
    }
    h.pod(static_cast<uint64_t>(assignments.size()));
    for (const ReadAssignment &a : assignments) {
        h.pod(a.cluster);
        h.pod(static_cast<uint8_t>(a.tier));
        h.pod(a.verified_distance);
        h.pod(a.candidates_probed);
    }
    for (size_t k = 0; k < before.size(); ++k)
        h.pod(after[k] - before[k]);
    return h.value();
}

/** The digest of @p run, which must agree at threads 1 and 8. */
template <typename Run>
uint64_t
clusteringDigestAtEveryThreadCount(const std::string &what, Run run)
{
    uint64_t first = 0;
    for (size_t threads : kThreadCounts) {
        ThreadGuard guard(threads);
        const uint64_t d = clusteringDigest(run);
        if (threads == kThreadCounts[0])
            first = d;
        EXPECT_EQ(d, first) << what << " at " << threads << " threads";
    }
    return first;
}

/** A pseudo-clustered channel read-out of @p refs 130-base strands. */
Dataset
channelReadout(size_t refs, double error_rate, size_t coverage,
               uint64_t seed)
{
    IdsChannelModel model = IdsChannelModel::full(
        NanoporeDatasetGenerator::groundTruthProfile(130, error_rate));
    Rng rng(seed);
    return ChannelSimulator(model).simulate(references(refs, 130, seed),
                                            FixedCoverage(coverage), rng);
}

/** @p data's reads, shuffled into a wetlab-ordered pool. */
std::vector<Strand>
shuffledPool(const Dataset &data, uint64_t seed)
{
    std::vector<Strand> pool = data.pooledReads();
    Rng rng(seed);
    rng.shuffle(pool);
    return pool;
}

/**
 * The clusterer's placements, assignments and counters: the
 * roundtrip's re-cluster channel, a noisier pool that opens many
 * clusters and places many reads by sketch, a wide probe budget, the
 * pool-and-recluster path with a read cap and three shards, and the
 * first pool read through a packed pool file.
 */
TEST(Golden, ClusterReads)
{
    // The roundtrip's re-clustered pass: 1 % IDS, coverage 10.
    const Dataset readout = channelReadout(480, 0.01, 10, 0xc1);
    const std::vector<Strand> roundtrip_pool =
        shuffledPool(readout, 0xc2);
    ASSERT_EQ(roundtrip_pool.size(), 4800u);
    const ClusterOptions defaults;
    expectDigest("roundtrip pool",
                 clusteringDigestAtEveryThreadCount(
                     "roundtrip pool",
                     [&](std::vector<ReadAssignment> &a, Fnv64 &) {
                         return clusterReads(roundtrip_pool, defaults,
                                             &a);
                     }),
                 0x1db0749f9d939acd);

    // 4 % IDS at coverage 6.
    const std::vector<Strand> noisy_pool =
        shuffledPool(channelReadout(700, 0.04, 6, 0xc3), 0xc4);
    expectDigest("noisy pool",
                 clusteringDigestAtEveryThreadCount(
                     "noisy pool",
                     [&](std::vector<ReadAssignment> &a, Fnv64 &) {
                         return clusterReads(noisy_pool, defaults, &a);
                     }),
                 0x727a76b84d404d83);

    ClusterOptions wide;
    wide.max_probes = 64;
    wide.anchor_length = 20;
    expectDigest("wide probe",
                 clusteringDigestAtEveryThreadCount(
                     "wide probe",
                     [&](std::vector<ReadAssignment> &a, Fnv64 &) {
                         return clusterReads(noisy_pool, wide, &a);
                     }),
                 0x15cd610af2c1bc6b);

    // poolAndRecluster, capped and sharded; the pool and the
    // identities it shuffled are part of the digest.
    expectDigest(
        "pooled, capped, 3 shards",
        clusteringDigestAtEveryThreadCount(
            "pooled, capped, 3 shards",
            [&](std::vector<ReadAssignment> &a, Fnv64 &h) {
                Rng rng(0xc5);
                ReclusteredPool rc = poolAndRecluster(
                    readout, defaults, rng, /*with_identity=*/true, &a,
                    /*max_reads=*/3700, /*shards=*/3);
                for (size_t r = 0; r < rc.pool.size(); ++r) {
                    h.str(rc.pool[r]);
                    h.pod(rc.identity[r].origin_cluster);
                    h.pod(rc.identity[r].origin_copy);
                }
                return rc.clusters;
            }),
        0xb564af72b8a5cbb6);

    // The roundtrip pool again, read through a packed pool file.
    const std::string path =
        ::testing::TempDir() + "/dnasim_golden_cluster.dnapool";
    {
        PackedStrandPoolBuilder builder;
        ASSERT_TRUE(builder.open(path));
        for (const Strand &r : roundtrip_pool)
            ASSERT_TRUE(builder.append(r));
        ASSERT_TRUE(builder.finish());
    }
    PackedStrandPool packed;
    ASSERT_TRUE(packed.open(path));
    const StrandPoolView view(packed);
    expectDigest("roundtrip pool, packed view",
                 clusteringDigestAtEveryThreadCount(
                     "roundtrip pool, packed view",
                     [&](std::vector<ReadAssignment> &a, Fnv64 &) {
                         return clusterReadsRange(view, 0, view.size(),
                                                  defaults, &a);
                     }),
                 0x1db0749f9d939acd);
    std::remove(path.c_str());
}

/**
 * The reconstructor inputs: the roundtrip channel at coverage 1, 3, 8
 * and 27, a small wetlab set (bursts, alien and truncated reads) and
 * hand-made edge clusters, in one dataset. Each cluster's design
 * length is its reference's length.
 */
const Dataset &
reconstructionInputs()
{
    static const Dataset data = [] {
        Dataset out;
        IdsChannelModel model = IdsChannelModel::full(
            NanoporeDatasetGenerator::groundTruthProfile(130, 0.04));
        ChannelSimulator sim(model);
        const size_t coverages[] = {1, 3, 8, 27};
        for (size_t k = 0; k < std::size(coverages); ++k) {
            FixedCoverage coverage(coverages[k]);
            Rng rng(0x7ec0 + k);
            Dataset part = sim.simulate(references(10, 130, 0x7e50 + k),
                                        coverage, rng);
            for (Cluster &c : part.clusters())
                out.add(std::move(c));
        }

        WetlabConfig config;
        config.num_clusters = 16;
        Rng wet_rng(0x7e7);
        Dataset wetlab = NanoporeDatasetGenerator(config).generate(wet_rng);
        for (Cluster &c : wetlab.clusters())
            out.add(std::move(c));

        const Strand ref = references(1, 40, 0x7ee).front();
        Strand sub = ref;
        sub[17] = sub[17] == 'A' ? 'C' : 'A';
        // An empty copy among full-length ones.
        out.add({ref, {"", ref, sub}});
        // Every copy shorter than the look-ahead window.
        out.add({ref.substr(0, 12), {"AC", "G", "ACG", "T"}});
        // Every cursor runs off its copy before the design length.
        out.add({ref, {ref.substr(0, 20), sub.substr(0, 26),
                       ref.substr(3, 22)}});
        // An insertion at the last base, and one after it.
        Strand before_last = ref;
        before_last.insert(before_last.size() - 1, "G");
        out.add({ref, {ref + "T", before_last, ref + "C", ref}});
        // Only empty copies; a single copy; two copies that tie.
        out.add({ref, {"", ""}});
        out.add({ref, {sub}});
        Strand other = ref;
        other.erase(9, 1);
        other.insert(30, "T");
        out.add({ref, {sub, other}});
        return out;
    }();
    return data;
}

struct NamedReconstructor
{
    const char *name;
    const Reconstructor &algo;
    uint64_t golden; ///< per-cluster estimates and Rng words
};

/**
 * Per-cluster estimates of every reconstructor, each cluster on the
 * fork(i) stream reconstructAll() gives it, plus one engine word
 * drawn after the call: the word pins how many draws the call took.
 */
TEST(Golden, Reconstructors)
{
    static const MajorityVote majority;
    static const BmaLookahead bma;
    static const BmaLookahead bma_oneway{BmaOptions{false}};
    static const DividerBma divider;
    static const Iterative iterative;
    static const Iterative iterative_raw{IterativeOptions{false}};
    static const TwoWayIterative twoway;
    static const WeightedIterative weighted;
    const NamedReconstructor algos[] = {
        {"bma", bma, 0x441e0921495ca6b7},
        {"bma-oneway", bma_oneway, 0xaf6a9e4bfc695a60},
        {"divbma", divider, 0x73c239b9e89422a0},
        {"iterative", iterative, 0xfd11b45014eac9e4},
        {"iterative-raw", iterative_raw, 0x6bd33c6566d8b47a},
        {"iterative-2way", twoway, 0x5ed40745a5bacd08},
        {"iterative-weighted", weighted, 0x067af1fd9e19655c},
        {"majority", majority, 0x509d9e0adc774df8},
    };

    const Dataset &data = reconstructionInputs();
    auto &reg = obs::Registry::global();
    obs::Counter *const counters[] = {
        &reg.counter("reconstruct.bma.lookaheads"),
        &reg.counter("reconstruct.iterative.rounds"),
        &align_detail::EditOpsStats::get().bitvec,
    };
    uint64_t before[std::size(counters)] = {};
    for (size_t k = 0; k < std::size(counters); ++k)
        before[k] = counters[k]->value();

    const Rng root(0x90a1);
    for (const NamedReconstructor &named : algos) {
        Fnv64 h;
        for (size_t i = 0; i < data.size(); ++i) {
            Rng rng = root.fork(i);
            h.str(named.algo.reconstruct(data[i].copies,
                                         data[i].reference.size(), rng));
            h.pod(rng.engine()());
        }
        expectDigest(named.name, h.value(), named.golden);
    }

    const uint64_t golden_deltas[] = {68643, 368, 8973};
    for (size_t k = 0; k < std::size(counters); ++k)
        EXPECT_EQ(counters[k]->value() - before[k], golden_deltas[k])
            << counters[k]->name();

    // reconstructAll() over the whole dataset at threads 1 and 8,
    // every algorithm.
    for (size_t threads : kThreadCounts) {
        ThreadGuard guard(threads);
        Fnv64 h;
        for (const NamedReconstructor &named : algos) {
            Rng rng(0x90a2);
            for (const Strand &estimate :
                 reconstructAll(data, named.algo, rng))
                h.str(estimate);
        }
        expectDigest("reconstructAll @" + std::to_string(threads),
                     h.value(), 0xca3e56983b0010c0);
    }
}

/**
 * The attribution engine's per-position vote profile, per-copy votes
 * included, over Iterative's estimates.
 */
TEST(Golden, ConsensusVoteProfile)
{
    const Dataset &data = reconstructionInputs();
    Rng rng(0x90a3);
    const std::vector<Strand> estimates =
        reconstructAll(data, Iterative(), rng);
    Fnv64 h;
    std::vector<std::string> per_copy;
    for (size_t i = 0; i < data.size(); ++i) {
        for (const PositionVote &v :
             consensusVoteProfile(estimates[i], data[i].copies,
                                  &per_copy)) {
            for (uint32_t b : v.base_votes)
                h.pod(b);
            h.pod(v.deletion_votes);
        }
        for (const std::string &votes : per_copy)
            h.str(votes);
    }
    expectDigest("consensusVoteProfile", h.value(),
                 0x740874b0e02d417b);
}

/**
 * Digest a sampler's output over @p draws draws from each of a fixed
 * seed and its first fork children.
 */
template <typename Draw>
uint64_t
streamDigest(uint64_t seed, size_t draws, Draw draw)
{
    Fnv64 h;
    Rng root(seed);
    for (size_t i = 0; i < draws; ++i)
        draw(root, h);
    for (uint64_t salt = 0; salt < 8; ++salt) {
        Rng child = root.fork(salt);
        for (size_t i = 0; i < draws / 16 + 1; ++i)
            draw(child, h);
    }
    return h.value();
}

TEST(Golden, RngStreams)
{
    expectDigest("uniform",
                 streamDigest(0x600d, 1000000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.uniform()));
                              }),
                 0x1e86b739bc2ddee8);
    const struct
    {
        size_t n;
        uint64_t golden;
    } index_goldens[] = {{2, 0x77914c17d5bc92a4},
                         {3, 0x6ba69ba054a21067},
                         {4, 0x86e72bdfb840cda4},
                         {7, 0x7758edd8d63bd203},
                         {1000, 0x4bc48727d0c94453}};
    for (const auto &[n, golden] : index_goldens) {
        expectDigest("index(" + std::to_string(n) + ")",
                     streamDigest(0x1d + n, 20000,
                                  [n](Rng &r, Fnv64 &h) {
                                      h.pod(static_cast<uint64_t>(
                                          r.index(n)));
                                  }),
                     golden);
    }
    expectDigest("uniformInt",
                 streamDigest(0x1e, 20000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(r.uniformInt(-5, 5));
                                  h.pod(r.uniformInt(0, INT64_MAX));
                              }),
                 0x16d96d790175d38c);
    expectDigest("uniform(lo, hi)",
                 streamDigest(0x10, 20000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.uniform(-3.5, 7.25)));
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.uniform(0.0, 1e-3)));
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.uniform(2.0, 2.0)));
                              }),
                 0x36194a67086c528f);
    expectDigest("shuffle",
                 streamDigest(0x5f, 2,
                              [](Rng &r, Fnv64 &h) {
                                  std::vector<uint32_t> v(10000);
                                  std::iota(v.begin(), v.end(), 0u);
                                  r.shuffle(v);
                                  h.bytes(v.data(),
                                          v.size() * sizeof(v[0]));
                              }),
                 0xb00ab80909fcce81);
    expectDigest("gaussian",
                 streamDigest(0x6a, 20000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.gaussian(1.5, 2.0)));
                              }),
                 0x6e33a9ec65baa4fa);
    expectDigest("poisson",
                 streamDigest(0x70, 5000,
                              [](Rng &r, Fnv64 &h) {
                                  for (double lambda : {0.5, 4.0, 30.0,
                                                        200.0})
                                      h.pod(r.poisson(lambda));
                              }),
                 0xb1a368a46218a60e);
    expectDigest("binomial",
                 streamDigest(0xb1, 5000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(r.binomial(10, 0.3));
                                  h.pod(r.binomial(1000, 0.02));
                                  h.pod(r.binomial(50, 0.9));
                              }),
                 0xbfc28a778814cdf4);
    expectDigest("negativeBinomial",
                 streamDigest(0xb2, 5000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(r.negativeBinomial(2.0,
                                                           2.0 / 29.0));
                                  h.pod(r.negativeBinomial(0.7, 0.1));
                              }),
                 0x422fb3cc790c056a);
    expectDigest("discrete",
                 streamDigest(0xd1, 20000,
                              [](Rng &r, Fnv64 &h) {
                                  const double w[] = {1.0, 0.0, 3.0,
                                                      0.5};
                                  h.pod(static_cast<uint64_t>(
                                      r.discrete(w)));
                              }),
                 0x5f904a5a2aec9f87);
}

} // anonymous namespace
} // namespace dnasim
