/**
 * @file
 * Clustering of an unordered read pool (section 1.1.2).
 *
 * The simulator's output is perfectly clustered ("pseudo-clustering"
 * in section 3.1). To emulate a real pipeline, the reads can be
 * shuffled into an unordered pool and re-clustered by edit-distance
 * similarity. The implementation is a greedy index-based clusterer
 * in the spirit of Rashtchian et al. [18]: candidate clusters come
 * from a two-tier index — a prefix-anchor bucket, then MinHash band
 * collisions (see sketch_index.hh) — and a read attaches to the
 * first candidate whose representative is within a distance
 * threshold.
 *
 * [18] spreads clustering over workers and changes the result; here
 * the greedy result stays exact. Reads are placed in blocks: the
 * reads of a block first probe, in parallel, the clusters opened
 * before the block (propose), then are placed one by one in read
 * order (commit), which verifies only the clusters opened inside the
 * block and replays the serial loop's decisions and counters. The
 * output is the one-read-at-a-time greedy clustering, byte for byte,
 * at any thread count (DESIGN.md, "Two-tier clustering candidate
 * generation").
 */

#ifndef DNASIM_CLUSTER_GREEDY_CLUSTER_HH
#define DNASIM_CLUSTER_GREEDY_CLUSTER_HH

#include <vector>

#include "base/dna.hh"
#include "base/rng.hh"
#include "base/strand_pool.hh"
#include "cluster/sketch_index.hh"

namespace dnasim
{

/** Options for the greedy clusterer. */
struct ClusterOptions
{
    /// Reads within this edit distance of a cluster representative
    /// join the cluster.
    size_t distance_threshold = 10;
    /// Length of the prefix anchor used for candidate bucketing.
    size_t anchor_length = 12;
    /// Maximum clusters probed per read and tier before opening a
    /// new one.
    size_t max_probes = 24;
    /// MinHash/LSH parameters of the sketch tier.
    SketchOptions sketch;
};

/** A cluster of reads (indices into the input pool). */
struct ReadCluster
{
    std::vector<size_t> members;
    Strand representative;
};

/** Which candidate tier placed a read (assignment provenance). */
enum class AssignmentTier : uint8_t
{
    Fresh,  ///< no candidate accepted; the read opened a new cluster
    Anchor, ///< admitted by a prefix-anchor bucket candidate
    Sketch, ///< admitted by a MinHash band-collision candidate
};

/** Number of AssignmentTier values. */
inline constexpr size_t kNumAssignmentTiers = 3;

/** Short stable name ("fresh", "anchor", "sketch"). */
const char *assignmentTierName(AssignmentTier tier);

/**
 * Per-read placement provenance emitted by clusterReads: which tier
 * admitted the read, the exact verified distance to the winning
 * representative, and how many contending candidates were verified
 * before the decision. Joined against ground-truth origins by the
 * lineage attribution engine (src/analysis/lineage.hh) to explain
 * *how* a misclustered read got in.
 */
struct ReadAssignment
{
    uint32_t cluster = 0; ///< index into the returned cluster list
    AssignmentTier tier = AssignmentTier::Fresh;
    /// Exact edit distance to the admitting representative (the
    /// bounded kernel reports exact values at or below the
    /// threshold); 0 for Fresh placements.
    uint32_t verified_distance = 0;
    /// Candidates dispatched for verification across both tiers
    /// before the decision (whole probe chunks).
    uint32_t candidates_probed = 0;
};

/**
 * Reads per block of the placement loop. Each block first probes, in
 * parallel, the clusters opened before it (propose), then places its
 * reads serially in read order (commit). The clustering is the same
 * at any block size; the size is a constant so the split of the work
 * never depends on --threads either.
 */
inline constexpr size_t kClusterBlockReads = 1024;

/**
 * Greedily cluster @p reads. Deterministic for a fixed input order;
 * shuffle the pool first for order-independence experiments.
 *
 * A non-null @p assignments receives one ReadAssignment per read
 * (indexed like @p reads). Capturing provenance never changes probe
 * order or placement — the clustering is identical either way.
 */
std::vector<ReadCluster>
clusterReads(const std::vector<Strand> &reads,
             const ClusterOptions &options = {},
             std::vector<ReadAssignment> *assignments = nullptr);

/**
 * Cluster reads [offset, offset + count) of a pool view — the
 * building block of the sharded out-of-core clusterer
 * (cluster/shard_cluster.hh). Cluster members are *global* pool
 * indices (offset + local position); a non-null @p assignments
 * receives count entries indexed by local position. For a
 * vector-backed view with offset 0 this is exactly clusterReads()
 * — same probe order, same placements, byte-identical clusters.
 */
std::vector<ReadCluster>
clusterReadsRange(const StrandPoolView &view, size_t offset,
                  size_t count, const ClusterOptions &options = {},
                  std::vector<ReadAssignment> *assignments = nullptr);

/**
 * Purity metrics of a clustering against ground truth: each read
 * carries the index of its true origin; a cluster's label is its
 * majority origin.
 */
struct ClusterPurity
{
    size_t num_clusters = 0;
    size_t num_reads = 0;
    /// Reads assigned to a cluster whose majority origin matches the
    /// read's origin.
    size_t correctly_clustered = 0;

    double
    purity() const
    {
        return num_reads == 0
                   ? 0.0
                   : static_cast<double>(correctly_clustered) /
                         static_cast<double>(num_reads);
    }
};

/** Score @p clusters given @p origins (true origin of each read). */
ClusterPurity scoreClustering(const std::vector<ReadCluster> &clusters,
                              const std::vector<size_t> &origins);

/**
 * A cluster's label: the most frequent of its members' @p origins,
 * ties to the smallest (0 when empty). Sorts @p origins in place.
 */
size_t majorityOrigin(std::vector<size_t> &origins);

} // namespace dnasim

#endif // DNASIM_CLUSTER_GREEDY_CLUSTER_HH
