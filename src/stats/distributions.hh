/**
 * @file
 * A sampler beyond what base/rng.hh provides directly: a reusable
 * cumulative sampler over discrete weights.
 */

#ifndef DNASIM_STATS_DISTRIBUTIONS_HH
#define DNASIM_STATS_DISTRIBUTIONS_HH

#include <vector>

#include "base/rng.hh"

namespace dnasim
{

/**
 * Precomputed cumulative sampler over fixed non-negative weights.
 *
 * O(log n) sampling; used on hot paths (confusion-matrix rows,
 * long-deletion length draws) where rebuilding a discrete
 * distribution per draw would dominate.
 */
class CumulativeSampler
{
  public:
    CumulativeSampler() = default;

    /** Build from unnormalized non-negative weights (sum must be > 0). */
    explicit CumulativeSampler(std::vector<double> weights);

    /** True once built with valid weights. */
    bool valid() const { return !cumulative_.empty(); }

    /** Number of categories. */
    size_t size() const { return cumulative_.size(); }

    /** Draw a category index. */
    size_t sample(Rng &rng) const;

    /** Normalized probability of category @p i. */
    double probability(size_t i) const;

  private:
    std::vector<double> cumulative_;
};

} // namespace dnasim

#endif // DNASIM_STATS_DISTRIBUTIONS_HH
