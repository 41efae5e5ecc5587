/**
 * @file
 * The one pool-and-recluster path (section 3.1): pool a
 * pseudo-clustered dataset's reads, shuffle them into wetlab order
 * and re-cluster them by similarity. `roundtrip --recluster`,
 * evaluateWithClustering(), `dnasim cluster` and `dnasim explain
 * --recluster` all run through it.
 */

#ifndef DNASIM_CLUSTER_RECLUSTER_HH
#define DNASIM_CLUSTER_RECLUSTER_HH

#include <cstdint>
#include <vector>

#include "cluster/greedy_cluster.hh"
#include "data/dataset.hh"

namespace dnasim
{

/**
 * True origin of one pooled read: its reference, and which copy of
 * it the read is (the key into LineageLog::readEvents).
 */
struct ReadIdentity
{
    uint32_t origin_cluster = 0;
    uint32_t origin_copy = 0;
};

/** A shuffled read pool and its recovered clustering. */
struct ReclusteredPool
{
    std::vector<Strand> pool;
    std::vector<ReadIdentity> identity; ///< per pool read, if asked
    std::vector<ReadCluster> clusters;  ///< members index pool

    /**
     * One Cluster per recovered cluster: the representative as its
     * reference, the members' reads as its copies. Moves the reads
     * out of the pool; a caller that still needs the pool regroups
     * a copy.
     */
    Dataset regrouped() &&;
};

/**
 * Pool every copy of @p data, shuffle the pool with @p rng, keep
 * the first @p max_reads reads (0 = all) and cluster them — with
 * clusterReads() when @p shards is 0, else clusterReadsSharded() in
 * @p shards segments. The copies are moved into the pool, so pass
 * an rvalue unless the caller still needs @p data. @p with_identity
 * tracks true origins through the shuffle; @p assignments, if
 * non-null, receives the per-read placement provenance. The
 * shuffle's draws depend only on the pool size, so identities never
 * change the order, and the result is the same at any thread count.
 */
ReclusteredPool
poolAndRecluster(Dataset data, const ClusterOptions &options,
                 Rng &rng, bool with_identity = false,
                 std::vector<ReadAssignment> *assignments = nullptr,
                 size_t max_reads = 0, size_t shards = 0);

} // namespace dnasim

#endif // DNASIM_CLUSTER_RECLUSTER_HH
