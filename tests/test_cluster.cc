/**
 * @file
 * Tests for the read-clustering substrate: greedy edit-distance
 * clustering of an unordered read pool, purity scoring, and the
 * pool-and-recluster path over a pseudo-clustered dataset.
 */

#include <gtest/gtest.h>

#include "cluster/greedy_cluster.hh"
#include "cluster/recluster.hh"
#include "cluster/shard_cluster.hh"
#include "core/ids_model.hh"
#include "data/strand_factory.hh"

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

TEST(EpochSeen, StampsAreScopedToTheEpoch)
{
    EpochSeen seen;
    seen.begin(4);
    EXPECT_FALSE(seen.test(2));
    seen.set(2);
    EXPECT_TRUE(seen.test(2));
    EXPECT_TRUE(seen.testAndSet(2));
    EXPECT_FALSE(seen.testAndSet(3));
    EXPECT_TRUE(seen.test(3));
    seen.begin(4); // new epoch invalidates every mark
    EXPECT_FALSE(seen.test(2));
    EXPECT_FALSE(seen.test(3));
    seen.begin(8); // growing the domain keeps O(1) semantics
    EXPECT_FALSE(seen.test(7));
    seen.set(7);
    EXPECT_TRUE(seen.test(7));
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
    const Dataset regrouped = rc.regrouped();
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
