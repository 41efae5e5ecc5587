/**
 * @file
 * Tests for the read-clustering substrate: greedy edit-distance
 * clustering of an unordered read pool, its equivalence with the
 * serial placement loop it replaced, purity scoring, and the
 * pool-and-recluster path over a pseudo-clustered dataset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_map>

#include "align/myers_batch.hh"
#include "base/strand_pool.hh"
#include "cluster/greedy_cluster.hh"
#include "cluster/recluster.hh"
#include "cluster/shard_cluster.hh"
#include "cluster/sketch_index.hh"
#include "core/ids_model.hh"
#include "data/strand_factory.hh"
#include "obs/stats.hh"
#include "par/thread_pool.hh"

namespace dnasim
{
namespace
{

/** A shuffled pool of noisy reads with ground-truth origins. */
struct Pool
{
    std::vector<Strand> reads;
    std::vector<size_t> origins;
    std::vector<Strand> references;
};

Pool
makePool(size_t num_refs, size_t copies_per_ref, double error_rate,
         uint64_t seed)
{
    Pool pool;
    StrandFactory factory;
    Rng rng(seed);
    pool.references = factory.makeMany(num_refs, 110, rng);
    ErrorProfile profile = ErrorProfile::uniform(error_rate, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    for (size_t i = 0; i < num_refs; ++i) {
        for (size_t k = 0; k < copies_per_ref; ++k) {
            pool.reads.push_back(
                model.transmit(pool.references[i], rng));
            pool.origins.push_back(i);
        }
    }
    // Shuffle reads and origins together.
    std::vector<size_t> order(pool.reads.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);
    Pool shuffled;
    shuffled.references = pool.references;
    for (size_t idx : order) {
        shuffled.reads.push_back(pool.reads[idx]);
        shuffled.origins.push_back(pool.origins[idx]);
    }
    return shuffled;
}

TEST(GreedyCluster, EmptyPool)
{
    auto clusters = clusterReads({});
    EXPECT_TRUE(clusters.empty());
}

TEST(GreedyCluster, IdenticalReadsOneCluster)
{
    std::vector<Strand> reads(5, Strand(60, 'A') + Strand(50, 'C'));
    auto clusters = clusterReads(reads);
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_EQ(clusters[0].members.size(), 5u);
}

TEST(GreedyCluster, SeparatesDistantReads)
{
    StrandFactory factory;
    Rng rng(150);
    std::vector<Strand> reads;
    for (int i = 0; i < 4; ++i) {
        Strand ref = factory.make(110, rng);
        reads.push_back(ref);
        reads.push_back(ref);
    }
    auto clusters = clusterReads(reads);
    EXPECT_EQ(clusters.size(), 4u);
}

TEST(GreedyCluster, HighPurityOnLowErrorPool)
{
    Pool pool = makePool(20, 8, 0.03, 151);
    auto clusters = clusterReads(pool.reads);
    auto purity = scoreClustering(clusters, pool.origins);
    EXPECT_EQ(purity.num_reads, pool.reads.size());
    EXPECT_GT(purity.purity(), 0.95);
    // Cluster count near the true reference count (some splits are
    // tolerable, merges are not).
    EXPECT_GE(clusters.size(), 20u);
    EXPECT_LE(clusters.size(), 40u);
}

TEST(GreedyCluster, DegradesGracefullyAtHighError)
{
    Pool pool = makePool(10, 6, 0.12, 152);
    auto clusters = clusterReads(pool.reads);
    auto purity = scoreClustering(clusters, pool.origins);
    // Purity stays decent (splits hurt coverage, not purity).
    EXPECT_GT(purity.purity(), 0.80);
}

TEST(GreedyCluster, ThresholdControlsMerging)
{
    Pool pool = makePool(10, 5, 0.04, 153);
    ClusterOptions tight;
    tight.distance_threshold = 2;
    auto many = clusterReads(pool.reads, tight);
    ClusterOptions loose;
    loose.distance_threshold = 25;
    auto few = clusterReads(pool.reads, loose);
    EXPECT_GT(many.size(), few.size());
}

TEST(GreedyCluster, EveryReadAssignedExactlyOnce)
{
    Pool pool = makePool(8, 7, 0.06, 154);
    auto clusters = clusterReads(pool.reads);
    std::vector<int> seen(pool.reads.size(), 0);
    for (const auto &cluster : clusters)
        for (size_t member : cluster.members)
            ++seen[member];
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "read " << i;
}

/** Flatten a clustering for exact-equality comparison. */
std::string
flatten(const std::vector<ReadCluster> &clusters)
{
    std::string s;
    for (const auto &c : clusters) {
        s += c.representative;
        s += ':';
        for (size_t m : c.members) {
            s += std::to_string(m);
            s += ',';
        }
        s += '\n';
    }
    return s;
}

TEST(SketchCluster, EmptyPoolBothBackends)
{
    // Named when a greedy recency-scan backend ran beside the
    // sketch tier; the sketch tier is now the only one.
    EXPECT_TRUE(clusterReads({}, ClusterOptions{}).empty());
}

TEST(SketchCluster, ReadsShorterThanAnchorAndKmer)
{
    // Reads shorter than both the anchor prefix and the sketch k-mer
    // have no signature (cluster.sketch.empty_signatures path) and
    // must still cluster by the exact distance gate.
    std::vector<Strand> reads = {"ACGT", "ACGT", "TTTT", "ACGT",
                                 "TTTT"};
    ClusterOptions options;
    options.distance_threshold = 0;
    auto clusters = clusterReads(reads, options);
    ASSERT_EQ(clusters.size(), 2u);
    EXPECT_EQ(clusters[0].members.size(), 3u);
    EXPECT_EQ(clusters[1].members.size(), 2u);
}

TEST(SketchCluster, MaxProbesZeroOpensOneClusterPerRead)
{
    Pool pool = makePool(6, 4, 0.03, 155);
    ClusterOptions options;
    options.max_probes = 0;
    // Long anchor so the anchor tier also proposes nothing.
    options.anchor_length = 1000;
    auto clusters = clusterReads(pool.reads, options);
    EXPECT_EQ(clusters.size(), pool.reads.size());
}

TEST(SketchCluster, FindsClustersOutsideRecencyWindow)
{
    // A pool wide enough that a read's true cluster is always older
    // than a 2-probe recency window, with anchors disabled by
    // corrupting prefix survival odds via a long anchor: a recency
    // scan splits, the sketch tier still finds the old cluster.
    // kGreedyClusters is what the retired greedy recency-scan tier
    // produced on this pool (measured before its removal, against 40
    // true clusters).
    constexpr size_t kGreedyClusters = 199;
    Pool pool = makePool(40, 6, 0.03, 156);
    ClusterOptions options;
    options.max_probes = 2;
    options.anchor_length = 40;
    auto sketch = clusterReads(pool.reads, options);
    EXPECT_LT(sketch.size(), kGreedyClusters);
    // Recall must not cost purity: candidates stay distance-gated.
    EXPECT_GT(scoreClustering(sketch, pool.origins).purity(), 0.95);
}

TEST(SketchCluster, PurityWithinHalfPercentOfGreedy)
{
    // The acceptance bar of the sketch index: quality parity (purity
    // within 0.5%) with the greedy scan on a seed-config pool.
    // kGreedyPurity is what the retired greedy recency-scan tier
    // scored on this pool (measured before its removal).
    constexpr double kGreedyPurity = 1.0;
    Pool pool = makePool(50, 8, 0.06, 157);
    double sketch =
        scoreClustering(clusterReads(pool.reads), pool.origins)
            .purity();
    EXPECT_NEAR(sketch, kGreedyPurity, 0.005);
}

TEST(SketchCluster, SketchOptionsChangeTheTradeoff)
{
    // Fewer bands -> fewer candidate proposals -> at least as many
    // clusters (recall can only drop); still deterministic.
    Pool pool = makePool(30, 6, 0.04, 158);
    ClusterOptions wide;
    wide.anchor_length = 40;
    wide.max_probes = 4;
    ClusterOptions narrow = wide;
    narrow.sketch.num_bands = 2;
    auto with_wide = clusterReads(pool.reads, wide);
    auto with_narrow = clusterReads(pool.reads, narrow);
    EXPECT_GE(with_narrow.size(), with_wide.size());
    EXPECT_EQ(flatten(clusterReads(pool.reads, narrow)),
              flatten(with_narrow));
}

TEST(BandTable, ClearForgetsEveryKeyAndGrowthKeepsThem)
{
    BandTable table;
    auto ids = [&table](uint64_t key) {
        std::vector<uint32_t> out;
        table.forEach(key, [&](uint32_t id) { out.push_back(id); });
        std::sort(out.begin(), out.end());
        return out;
    };
    // Enough keys to grow the 1,024-slot table several times.
    for (uint32_t id = 0; id < 5000; ++id) {
        table.add(0x9e3779b97f4a7c15ULL * (id % 3000 + 1), id);
    }
    EXPECT_EQ(ids(0x9e3779b97f4a7c15ULL * 7),
              (std::vector<uint32_t>{6, 3006}));
    EXPECT_EQ(ids(0x9e3779b97f4a7c15ULL * 2999),
              (std::vector<uint32_t>{2998}));
    EXPECT_TRUE(ids(12345).empty());
    table.clear();
    EXPECT_TRUE(ids(0x9e3779b97f4a7c15ULL * 7).empty());
    table.add(0x9e3779b97f4a7c15ULL * 7, 42);
    EXPECT_EQ(ids(0x9e3779b97f4a7c15ULL * 7),
              (std::vector<uint32_t>{42}));
    EXPECT_TRUE(ids(0x9e3779b97f4a7c15ULL * 8).empty());
}

/** Restore the default thread count when a test scope exits. */
struct ThreadGuard
{
    explicit ThreadGuard(size_t n) { par::setThreads(n); }
    ~ThreadGuard() { par::setThreads(0); }
};

/** The ten cluster counters, in a fixed order. */
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
using ClusterCounts = std::array<uint64_t, std::size(kClusterCounters)>;

ClusterCounts
clusterCounters()
{
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    ClusterCounts counts{};
    for (size_t k = 0; k < counts.size(); ++k)
        counts[k] = snap.counter(kClusterCounters[k]);
    return counts;
}

/** One clustering run, with the growth of every counter. */
struct ClusterRun
{
    std::vector<ReadCluster> clusters;
    std::vector<ReadAssignment> assignments;
    ClusterCounts counts{};
};

/**
 * The serial greedy placement loop that the propose/commit blocks
 * replaced, kept as the reference they must reproduce: one read at a
 * time probes the clusters open at that moment — its anchor bucket,
 * then, if nothing there accepted it, the clusters sharing a band key
 * with it, ranked by (shared keys desc, id asc) — in chunks of 4,
 * then 16, and joins the first within the threshold. Its sketch
 * tier keeps its own band map; only the signatures come from
 * SketchIndex.
 */
ClusterRun
referenceCluster(const StrandPoolView &view, size_t offset, size_t count,
                 const ClusterOptions &options)
{
    ClusterRun run;
    enum
    {
        kReads,
        kComparisons,
        kMerges,
        kCreated,
        kBands,
        kCollisions,
        kCandidates,
        kProbes,
        kVerified,
        kEmpty,
    };
    std::vector<ReadCluster> &clusters = run.clusters;
    const SketchIndex sketch(view, offset, count, options.sketch);
    std::map<std::string, std::vector<size_t>, std::less<>> buckets;
    std::unordered_map<uint64_t, std::vector<size_t>> bands;
    auto anchor_of = [&](std::string_view s) {
        return std::string(
            s.substr(0, std::min(options.anchor_length, s.size())));
    };

    MyersPattern pattern;
    std::vector<size_t> distances;
    auto probe_list = [&](const std::vector<size_t> &cand,
                          size_t &probed) -> size_t {
        probed = cand.size();
        distances.assign(cand.size(), 0);
        size_t lo = 0;
        size_t chunk = 4;
        while (lo < cand.size()) {
            const size_t len = std::min(chunk, cand.size() - lo);
            std::vector<std::string_view> texts;
            for (size_t k = lo; k < lo + len; ++k)
                texts.push_back(clusters[cand[k]].representative);
            myersBatchDistanceBounded(
                pattern, texts, options.distance_threshold,
                std::span<size_t>(distances).subspan(lo, len));
            run.counts[kComparisons] += len;
            for (size_t k = lo; k < lo + len; ++k) {
                if (distances[k] <= options.distance_threshold) {
                    probed = lo + len;
                    return k;
                }
            }
            lo += len;
            chunk = 16;
        }
        return cand.size();
    };

    run.assignments.assign(count, ReadAssignment{});
    Strand scratch;
    for (size_t i = 0; i < count; ++i) {
        const std::string_view read = view.chars(offset + i, scratch);
        pattern.assign(read);

        std::set<size_t> seen;
        std::vector<size_t> candidates;
        auto it = buckets.find(anchor_of(read));
        if (it != buckets.end()) {
            candidates = it->second;
            seen.insert(candidates.begin(), candidates.end());
        }
        if (candidates.size() > options.max_probes)
            candidates.resize(options.max_probes);
        size_t probed = 0;
        size_t pos = probe_list(candidates, probed);
        size_t placed_in = clusters.size();
        ReadAssignment &a = run.assignments[i];
        if (pos < candidates.size()) {
            placed_in = candidates[pos];
            a.tier = AssignmentTier::Anchor;
            a.verified_distance = static_cast<uint32_t>(distances[pos]);
        }

        if (placed_in == clusters.size() && sketch.hasSignature(i) &&
            options.max_probes > 0) {
            run.counts[kBands] += options.sketch.num_bands;
            std::map<size_t, uint32_t> hits;
            for (uint64_t key : sketch.bandKeys(i)) {
                auto band = bands.find(key);
                if (band == bands.end())
                    continue;
                for (size_t id : band->second) {
                    ++run.counts[kCollisions];
                    ++hits[id];
                }
            }
            std::vector<std::pair<size_t, uint32_t>> touched(hits.begin(),
                                                             hits.end());
            std::sort(touched.begin(), touched.end(),
                      [](const auto &x, const auto &y) {
                          return x.second != y.second
                                     ? x.second > y.second
                                     : x.first < y.first;
                      });
            std::vector<size_t> sketch_candidates;
            for (const auto &[id, n] : touched) {
                if (sketch_candidates.size() >= options.max_probes)
                    break;
                if (seen.count(id) != 0)
                    continue;
                sketch_candidates.push_back(id);
                ++run.counts[kCandidates];
            }
            size_t sprobed = 0;
            const size_t spos = probe_list(sketch_candidates, sprobed);
            run.counts[kProbes] += sprobed;
            probed += sprobed;
            if (spos < sketch_candidates.size()) {
                placed_in = sketch_candidates[spos];
                a.tier = AssignmentTier::Sketch;
                a.verified_distance =
                    static_cast<uint32_t>(distances[spos]);
                ++run.counts[kVerified];
            }
        }
        a.cluster = static_cast<uint32_t>(placed_in);
        a.candidates_probed = static_cast<uint32_t>(probed);

        if (placed_in == clusters.size()) {
            clusters.push_back({{offset + i}, Strand(read)});
            buckets[anchor_of(read)].push_back(placed_in);
            if (sketch.hasSignature(i))
                for (uint64_t key : sketch.bandKeys(i))
                    bands[key].push_back(placed_in);
            ++run.counts[kCreated];
        } else {
            clusters[placed_in].members.push_back(offset + i);
            ++run.counts[kMerges];
        }
    }
    run.counts[kReads] = count;
    run.counts[kEmpty] = sketch.emptySignatures();
    return run;
}

ClusterRun
blockCluster(const StrandPoolView &view, size_t offset, size_t count,
             const ClusterOptions &options)
{
    ClusterRun run;
    const ClusterCounts before = clusterCounters();
    run.clusters = clusterReadsRange(view, offset, count, options,
                                     &run.assignments);
    const ClusterCounts after = clusterCounters();
    for (size_t k = 0; k < run.counts.size(); ++k)
        run.counts[k] = after[k] - before[k];
    return run;
}

void
expectSameRun(const std::string &what, const ClusterRun &got,
              const ClusterRun &want)
{
    ASSERT_EQ(got.clusters.size(), want.clusters.size()) << what;
    for (size_t c = 0; c < want.clusters.size(); ++c) {
        EXPECT_EQ(got.clusters[c].representative,
                  want.clusters[c].representative)
            << what << ", cluster " << c;
        EXPECT_EQ(got.clusters[c].members, want.clusters[c].members)
            << what << ", cluster " << c;
    }
    ASSERT_EQ(got.assignments.size(), want.assignments.size()) << what;
    for (size_t r = 0; r < want.assignments.size(); ++r) {
        const ReadAssignment &g = got.assignments[r];
        const ReadAssignment &w = want.assignments[r];
        EXPECT_TRUE(g.cluster == w.cluster && g.tier == w.tier &&
                    g.verified_distance == w.verified_distance &&
                    g.candidates_probed == w.candidates_probed)
            << what << ", read " << r << ": cluster " << g.cluster << "/"
            << w.cluster << ", tier " << assignmentTierName(g.tier) << "/"
            << assignmentTierName(w.tier) << ", distance "
            << g.verified_distance << "/" << w.verified_distance
            << ", probed " << g.candidates_probed << "/"
            << w.candidates_probed;
    }
    for (size_t k = 0; k < want.counts.size(); ++k)
        EXPECT_EQ(got.counts[k], want.counts[k])
            << what << ": " << kClusterCounters[k];
}

/** One equivalence case: a range of a pool and the options. */
struct EquivalenceCase
{
    std::string name;
    const std::vector<Strand> *reads;
    size_t offset;
    size_t count;
    ClusterOptions options;
};

/** Siblings next to each other: a pool in cluster order. */
std::vector<Strand>
unshuffledPool(size_t num_refs, size_t copies_per_ref, double error_rate,
               uint64_t seed)
{
    Rng rng(seed);
    const std::vector<Strand> refs =
        StrandFactory().makeMany(num_refs, 110, rng);
    IdsChannelModel model =
        IdsChannelModel::naive(ErrorProfile::uniform(error_rate, 110));
    std::vector<Strand> reads;
    for (const Strand &ref : refs)
        for (size_t k = 0; k < copies_per_ref; ++k)
            reads.push_back(model.transmit(ref, rng));
    return reads;
}

/**
 * The block clusterer against the serial reference on inputs that
 * stress the block edges: pools whose siblings share a block, pools
 * of one repeated read and of unrelated reads, sizes around the
 * block, every chunk-schedule edge of max_probes, anchors longer
 * than the reads and reads too short to sketch.
 */
std::vector<EquivalenceCase>
equivalenceCases()
{
    static const std::vector<Strand> shuffled = [] {
        return makePool(400, 8, 0.04, 0xe1).reads;
    }();
    static const std::vector<Strand> siblings =
        unshuffledPool(400, 8, 0.04, 0xe2);
    static const std::vector<Strand> identical(2500,
                                               shuffled.front());
    static const std::vector<Strand> distinct = [] {
        Rng rng(0xe3);
        return StrandFactory().makeMany(2500, 110, rng);
    }();
    static const std::vector<Strand> odd = [] {
        // Every 11th read is shorter than the k-mer; every other 13th
        // is shorter than the anchor. (Growing a 6-base read to 9
        // would pad it with NULs, and strands are ACGT.)
        std::vector<Strand> reads = makePool(300, 8, 0.03, 0xe4).reads;
        for (size_t r = 0; r < reads.size(); ++r) {
            if (r % 11 == 0)
                reads[r].resize(6);
            else if (r % 13 == 0)
                reads[r].resize(9);
        }
        return reads;
    }();

    const size_t block = kClusterBlockReads;
    const ClusterOptions defaults;
    std::vector<EquivalenceCase> cases;
    cases.push_back({"shuffled", &shuffled, 0, shuffled.size(), defaults});
    cases.push_back({"siblings", &siblings, 0, siblings.size(), defaults});
    cases.push_back(
        {"identical", &identical, 0, identical.size(), defaults});
    cases.push_back({"distinct", &distinct, 0, distinct.size(), defaults});
    for (size_t n : {size_t{0}, size_t{1}, block - 1, block, block + 1,
                     3 * block + 17}) {
        cases.push_back({"siblings[:" + std::to_string(n) + "]",
                         &siblings, 0, n, defaults});
    }
    cases.push_back({"shuffled[17:+2100]", &shuffled, 17, 2100, defaults});
    for (size_t probes : {0, 1, 4, 5, 20, 21, 64}) {
        ClusterOptions o;
        o.max_probes = probes;
        // A short anchor fills the buckets past the probe budget.
        o.anchor_length = 3;
        cases.push_back({"siblings, anchor 3, max_probes " +
                             std::to_string(probes),
                         &siblings, 0, siblings.size(), o});
        o.anchor_length = 200;
        o.distance_threshold = 24;
        cases.push_back({"shuffled, anchor 200, threshold 24, "
                         "max_probes " +
                             std::to_string(probes),
                         &shuffled, 0, shuffled.size(), o});
    }
    ClusterOptions loose;
    loose.distance_threshold = 40;
    loose.sketch.num_bands = 4;
    loose.sketch.rows_per_band = 1;
    cases.push_back({"distinct, loose", &distinct, 0, distinct.size(),
                     loose});
    cases.push_back({"odd reads", &odd, 0, odd.size(), defaults});
    ClusterOptions tiny_kmer = defaults;
    tiny_kmer.sketch.kmer_length = 3;
    tiny_kmer.anchor_length = 1;
    cases.push_back({"odd reads, anchor 1, k 3", &odd, 0, odd.size(),
                     tiny_kmer});
    return cases;
}

void
expectCasesMatchReference(const std::vector<EquivalenceCase> &cases,
                          const std::vector<size_t> &order)
{
    for (size_t c : order) {
        const EquivalenceCase &ec = cases[c];
        const StrandPoolView view(*ec.reads);
        const ClusterRun want =
            referenceCluster(view, ec.offset, ec.count, ec.options);
        for (size_t threads : {1, 2, 8}) {
            ThreadGuard guard(threads);
            expectSameRun(ec.name + " at " + std::to_string(threads) +
                              " threads",
                          blockCluster(view, ec.offset, ec.count,
                                       ec.options),
                          want);
        }
    }
}

TEST(ClusterEquivalence, BlocksReproduceTheSerialLoop)
{
    const std::vector<EquivalenceCase> cases = equivalenceCases();
    std::vector<size_t> order(cases.size());
    std::iota(order.begin(), order.end(), size_t{0});
    expectCasesMatchReference(cases, order);
}

TEST(ClusterEquivalence, ShuffledCallOrderOnAFreshThread)
{
    // A fresh thread starts with empty thread-local scratch, and a
    // shuffled order hands each case the scratch another case left.
    const std::vector<EquivalenceCase> cases = equivalenceCases();
    std::vector<size_t> order(cases.size());
    std::iota(order.begin(), order.end(), size_t{0});
    Rng rng(0x5107);
    rng.shuffle(order);
    std::thread worker([&] { expectCasesMatchReference(cases, order); });
    worker.join();
}

TEST(ClusterEquivalence, PackedViewMatchesTheSerialLoop)
{
    const std::vector<Strand> reads = makePool(300, 8, 0.04, 0xe5).reads;
    const std::string path =
        ::testing::TempDir() + "/dnasim_cluster_equivalence.dnapool";
    {
        PackedStrandPoolBuilder builder;
        ASSERT_TRUE(builder.open(path));
        for (const Strand &r : reads)
            ASSERT_TRUE(builder.append(r));
        ASSERT_TRUE(builder.finish());
    }
    PackedStrandPool packed;
    ASSERT_TRUE(packed.open(path));
    const StrandPoolView view(packed);
    const ClusterOptions options;
    const ClusterRun want = referenceCluster(view, 5, 2300, options);
    for (size_t threads : {1, 2, 8}) {
        ThreadGuard guard(threads);
        expectSameRun("packed at " + std::to_string(threads),
                      blockCluster(view, 5, 2300, options), want);
    }
    std::remove(path.c_str());
}

/** A pseudo-clustered dataset: noisy copies grouped by reference. */
Dataset
pseudoClustered(size_t num_refs, size_t copies_per_ref, uint64_t seed)
{
    StrandFactory factory;
    Rng rng(seed);
    ErrorProfile profile = ErrorProfile::uniform(0.03, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    Dataset data;
    for (size_t i = 0; i < num_refs; ++i) {
        Cluster c;
        c.reference = factory.make(110, rng);
        for (size_t k = 0; k < copies_per_ref; ++k)
            c.copies.push_back(model.transmit(c.reference, rng));
        data.add(std::move(c));
    }
    return data;
}

TEST(Recluster, PoolOrderMatchesShufflingTheReadsDirectly)
{
    const Dataset data = pseudoClustered(30, 5, 41);
    Rng a(9), b(9);
    const ReclusteredPool rc =
        poolAndRecluster(data, {}, a, /*with_identity=*/true);

    std::vector<Strand> shuffled = data.pooledReads();
    b.shuffle(shuffled);
    EXPECT_EQ(rc.pool, shuffled);
    EXPECT_EQ(a.index(1u << 30), b.index(1u << 30));
    EXPECT_EQ(rc.clusters.size(), clusterReads(shuffled).size());

    // Identities name the copy each pooled read came from.
    ASSERT_EQ(rc.identity.size(), rc.pool.size());
    for (size_t r = 0; r < rc.pool.size(); ++r) {
        const ReadIdentity &id = rc.identity[r];
        EXPECT_EQ(rc.pool[r],
                  data[id.origin_cluster].copies[id.origin_copy]);
    }

    // Without identities: the same pool and clustering, no identity.
    Rng c(9);
    const ReclusteredPool plain = poolAndRecluster(data, {}, c);
    EXPECT_EQ(plain.pool, rc.pool);
    EXPECT_TRUE(plain.identity.empty());
    ASSERT_EQ(plain.clusters.size(), rc.clusters.size());
    for (size_t i = 0; i < rc.clusters.size(); ++i)
        EXPECT_EQ(plain.clusters[i].members, rc.clusters[i].members);
}

TEST(Recluster, RegroupedDatasetFollowsTheClusters)
{
    const Dataset data = pseudoClustered(20, 4, 42);
    Rng rng(10);
    const ReclusteredPool rc = poolAndRecluster(data, {}, rng);
    const Dataset regrouped = ReclusteredPool(rc).regrouped();
    ASSERT_EQ(regrouped.size(), rc.clusters.size());
    size_t copies = 0;
    for (size_t i = 0; i < regrouped.size(); ++i) {
        EXPECT_EQ(regrouped[i].reference,
                  rc.clusters[i].representative);
        ASSERT_EQ(regrouped[i].copies.size(),
                  rc.clusters[i].members.size());
        for (size_t k = 0; k < regrouped[i].copies.size(); ++k)
            EXPECT_EQ(regrouped[i].copies[k],
                      rc.pool[rc.clusters[i].members[k]]);
        copies += regrouped[i].copies.size();
    }
    EXPECT_EQ(copies, data.totalCopies());
}

TEST(Recluster, MaxReadsAndShardsClusterTheShuffledPrefix)
{
    const Dataset data = pseudoClustered(25, 4, 43);
    ClusterOptions options;
    Rng a(11), b(11);
    std::vector<ReadAssignment> assignments;
    const ReclusteredPool rc = poolAndRecluster(
        data, options, a, /*with_identity=*/true, &assignments,
        /*max_reads=*/60, /*shards=*/3);

    std::vector<Strand> shuffled = data.pooledReads();
    b.shuffle(shuffled);
    shuffled.resize(60);
    EXPECT_EQ(rc.pool, shuffled);
    EXPECT_EQ(rc.identity.size(), 60u);
    EXPECT_EQ(assignments.size(), 60u);

    const auto expected =
        clusterReadsSharded(StrandPoolView(shuffled), options, 3);
    ASSERT_EQ(rc.clusters.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(rc.clusters[i].members, expected[i].members);
        EXPECT_EQ(rc.clusters[i].representative,
                  expected[i].representative);
    }
}

TEST(ScoreClustering, PerfectClusteringIsPure)
{
    std::vector<ReadCluster> clusters(2);
    clusters[0].members = {0, 1};
    clusters[1].members = {2, 3};
    std::vector<size_t> origins = {7, 7, 9, 9};
    auto purity = scoreClustering(clusters, origins);
    EXPECT_DOUBLE_EQ(purity.purity(), 1.0);
}

TEST(ScoreClustering, MixedClusterPenalized)
{
    std::vector<ReadCluster> clusters(1);
    clusters[0].members = {0, 1, 2};
    std::vector<size_t> origins = {1, 1, 2};
    auto purity = scoreClustering(clusters, origins);
    EXPECT_NEAR(purity.purity(), 2.0 / 3.0, 1e-12);
}

TEST(ScoreClustering, EmptyClustering)
{
    auto purity = scoreClustering({}, {});
    EXPECT_EQ(purity.num_reads, 0u);
    EXPECT_DOUBLE_EQ(purity.purity(), 0.0);
}

} // namespace
} // namespace dnasim
