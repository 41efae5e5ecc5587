/**
 * @file
 * Clustered-dataset containers.
 *
 * A Dataset is what both a wetlab experiment (after clustering) and
 * the simulator produce: for each synthesized reference strand, a
 * cluster of noisy copies. Empty clusters represent erasures (the
 * reference was never recovered by sequencing).
 */

#ifndef DNASIM_DATA_DATASET_HH
#define DNASIM_DATA_DATASET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/dna.hh"
#include "base/rng.hh"

namespace dnasim
{

/** One reference strand together with its noisy copies. */
struct Cluster
{
    Strand reference;
    std::vector<Strand> copies;

    size_t coverage() const { return copies.size(); }
    bool isErasure() const { return copies.empty(); }
};

/** Aggregate shape statistics of a dataset. */
struct DatasetStats
{
    size_t num_clusters = 0;
    size_t num_copies = 0;
    size_t num_erasures = 0;
    double mean_coverage = 0.0;
    size_t min_coverage = 0;
    size_t max_coverage = 0;
    double mean_copy_length = 0.0;
    /// Mean per-copy edit distance to the reference divided by the
    /// reference length; the dataset's aggregate error rate.
    double aggregate_error_rate = 0.0;
};

/** An ordered collection of clusters. */
class Dataset
{
  public:
    Dataset() = default;
    explicit Dataset(std::vector<Cluster> clusters)
        : clusters_(std::move(clusters))
    {}

    size_t size() const { return clusters_.size(); }
    bool empty() const { return clusters_.empty(); }

    Cluster &operator[](size_t i) { return clusters_[i]; }
    const Cluster &operator[](size_t i) const { return clusters_[i]; }

    std::vector<Cluster> &clusters() { return clusters_; }
    const std::vector<Cluster> &clusters() const { return clusters_; }

    void add(Cluster cluster) { clusters_.push_back(std::move(cluster)); }

    auto begin() { return clusters_.begin(); }
    auto end() { return clusters_.end(); }
    auto begin() const { return clusters_.begin(); }
    auto end() const { return clusters_.end(); }

    /** Total number of noisy copies across all clusters. */
    size_t totalCopies() const;

    /** Per-cluster coverages, in order. */
    std::vector<size_t> coverages() const;

    /** Per-cluster reference strands, in order. */
    std::vector<Strand> references() const;

    /**
     * Shape statistics. Computing aggregate_error_rate costs one
     * edit-distance evaluation per copy; pass
     * @p with_error_rate = false to skip it on large datasets.
     */
    DatasetStats stats(bool with_error_rate = true) const;

    /**
     * Dataset restricted to a fixed coverage @p n, following the
     * paper's section 3.2 protocol: clusters with fewer than
     * max(@p n, @p min_coverage) copies are dropped entirely; the
     * remaining clusters keep exactly their first @p n copies.
     * Because copies are kept in order, the dataset at coverage
     * n+1 differs from the one at n only by each cluster's extra
     * copy. The paper filters to clusters with at least 10 copies
     * before sweeping n = 1..10; pass @p min_coverage = 10 for that.
     */
    Dataset fixedCoverage(size_t n, size_t min_coverage = 0) const;

    /**
     * Shuffle the order of copies within every cluster (used once
     * up-front so fixedCoverage() draws unbiased prefixes).
     */
    void shuffleWithinClusters(Rng &rng);

    /** All copies from all clusters, in cluster order (for
     *  imperfect-clustering experiments). */
    std::vector<Strand> pooledReads() const;

    /**
     * Keep only the first @p max_reads copies in cluster order
     * (0 = no-op). Clusters are retained — ones past the cap become
     * erasures — so cluster indices and references stay stable. The
     * prefix-subsample behind --max-reads smoke runs.
     */
    void truncateReads(size_t max_reads);

  private:
    std::vector<Cluster> clusters_;
};

} // namespace dnasim

#endif // DNASIM_DATA_DATASET_HH
