/**
 * @file
 * Reconstruction-accuracy metrics — the paper's key evaluation
 * criteria (section 3.1, criterion 4).
 *
 *  - per-strand accuracy: the percentage of reference strands
 *    reconstructed without any error;
 *  - per-character accuracy: the percentage of reference characters
 *    reconstructed with the correct base at the correct position.
 */

#ifndef DNASIM_ANALYSIS_ACCURACY_HH
#define DNASIM_ANALYSIS_ACCURACY_HH

#include <cstdint>
#include <vector>

#include "base/strand_pool.hh"
#include "data/dataset.hh"
#include "reconstruct/reconstructor.hh"

namespace dnasim
{

/** Accuracy of a set of reconstructions. */
struct AccuracyResult
{
    size_t num_clusters = 0;
    size_t num_perfect = 0;    ///< exactly reconstructed strands
    size_t num_chars = 0;      ///< total reference characters
    size_t num_chars_correct = 0;

    /** Fraction of strands reconstructed exactly, in [0, 1]. */
    double
    perStrand() const
    {
        return num_clusters == 0
                   ? 0.0
                   : static_cast<double>(num_perfect) /
                         static_cast<double>(num_clusters);
    }

    /** Fraction of characters reconstructed correctly, in [0, 1]. */
    double
    perChar() const
    {
        return num_chars == 0
                   ? 0.0
                   : static_cast<double>(num_chars_correct) /
                         static_cast<double>(num_chars);
    }
};

/**
 * Run @p algo over every cluster of @p data. Erasure clusters yield
 * empty estimates. Deterministic in @p rng's seed (one forked
 * stream per cluster). Estimates target @p design_len bases, or each
 * cluster's reference length at the default 0; re-clustered data
 * passes it explicitly, since representatives vary in length.
 */
std::vector<Strand> reconstructAll(const Dataset &data,
                                   const Reconstructor &algo, Rng &rng,
                                   size_t design_len = 0);

/**
 * Score @p estimates (one per cluster, aligned by index) against the
 * references of @p data. Per-character correctness is positional:
 * estimate[i] must equal reference[i].
 */
AccuracyResult scoreReconstructions(
    const Dataset &data, const std::vector<Strand> &estimates);

/** reconstructAll + scoreReconstructions in one step. */
AccuracyResult evaluateAccuracy(const Dataset &data,
                                const Reconstructor &algo, Rng &rng);

/**
 * The out-of-core counterpart of evaluateAccuracy(), over a
 * checkpointed clustering: cluster c's copies are the reads with
 * @p assignments[r] == c, its ground-truth reference is the
 * majority true origin of those reads (ties to the smallest origin
 * id, like scoreClustering), and the estimate is scored against
 * that reference. Reads and references stream out of pool views;
 * only one cluster's copies are materialized per worker at a time.
 * Deterministic in @p rng's seed (one forked stream per cluster).
 */
AccuracyResult
evaluatePoolAccuracy(const StrandPoolView &reads,
                     const std::vector<uint32_t> &assignments,
                     const std::vector<uint32_t> &origins,
                     const StrandPoolView &references,
                     const Reconstructor &algo, Rng &rng);

} // namespace dnasim

#endif // DNASIM_ANALYSIS_ACCURACY_HH
