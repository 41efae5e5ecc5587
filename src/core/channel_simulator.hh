/**
 * @file
 * The channel simulator: drives an ErrorModel over a library of
 * reference strands under a CoverageModel, producing a clustered
 * dataset — the simulator's counterpart of one sequencing run.
 */

#ifndef DNASIM_CORE_CHANNEL_SIMULATOR_HH
#define DNASIM_CORE_CHANNEL_SIMULATOR_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "base/strand_pool.hh"
#include "core/coverage.hh"
#include "core/error_model.hh"
#include "core/lineage_log.hh"
#include "data/dataset.hh"

namespace dnasim
{

struct PoolSimulateResult
{
    size_t clusters = 0; ///< clusters that contributed reads
    bool truncated = false; ///< max_reads cut the run short
    /// The cluster index of each read, in read order (4 B a read).
    std::vector<uint32_t> origins;
};

/**
 * Generates clustered noisy datasets from reference strands.
 *
 * The simulator forks one RNG stream per cluster so the data for a
 * given (seed, cluster index) pair is identical regardless of how
 * many clusters are generated — experiments at different scales stay
 * comparable.
 */
class ChannelSimulator
{
  public:
    /** @p model must outlive the simulator. */
    explicit ChannelSimulator(const ErrorModel &model);

    const ErrorModel &model() const { return model_; }

    /**
     * Transmit every strand of @p references through the channel,
     * with per-cluster coverage from @p coverage.
     *
     * A non-null @p lineage captures the ground-truth error events
     * of every read (reset to references.size() clusters first).
     * Cluster i's arena is filled by whichever worker simulates
     * cluster i and by no one else, so the log — like the dataset —
     * is identical at any --threads; the strands themselves are
     * byte-identical with lineage on or off.
     */
    Dataset simulate(const std::vector<Strand> &references,
                     const CoverageModel &coverage, Rng &rng,
                     LineageLog *lineage = nullptr) const;

    /**
     * Simulate with coverage copied cluster-for-cluster from
     * @p shape (Table 2.1's "custom coverage" protocol): cluster i
     * of the result has exactly as many copies as cluster i of
     * @p shape, and re-uses its reference strand: simulate() with
     * CustomCoverage(shape.coverages()).
     */
    Dataset simulateLike(const Dataset &shape, Rng &rng,
                         LineageLog *lineage = nullptr) const;

    /**
     * Transmit every strand of @p references (pool- or vector-
     * backed) straight into a pool builder, in bounded memory:
     * clusters are simulated a fixed-size chunk at a time (parallel
     * inside a chunk, per-cluster streams forked by global index)
     * and drained serially to @p reads_out in cluster order, so the
     * reads — and their order — are byte-identical to flattening
     * simulate() at any --threads; the result carries each read's
     * cluster index. A nonzero @p max_reads stops the run after that
     * many reads, possibly mid-cluster. Lineage capture is not available
     * on this path; use simulate() when forensics are needed.
     */
    PoolSimulateResult
    simulateToPool(const StrandPoolView &references,
                   const CoverageModel &coverage, Rng &rng,
                   PackedStrandPoolBuilder &reads_out,
                   size_t max_reads = 0) const;

    /**
     * One cluster: @p n transmissions of @p reference, with events
     * appended to @p lineage when non-null.
     */
    Cluster simulateCluster(std::string_view reference, size_t n,
                            Rng &rng,
                            ClusterLineage *lineage = nullptr) const;

  private:
    const ErrorModel &model_;
};

} // namespace dnasim

#endif // DNASIM_CORE_CHANNEL_SIMULATOR_HH
