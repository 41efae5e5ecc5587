/**
 * @file
 * Sequencing-coverage models: how many noisy copies each reference
 * strand receives.
 *
 * DNASimulator assumes a user-fixed uniform coverage; real data shows
 * the per-strand read count is approximately negative-binomially
 * distributed (Heckel et al. [13]). The simulator supports fixed,
 * custom (per-cluster, e.g. copied from a real dataset) and
 * negative-binomial coverage, plus an independent erasure
 * probability for clusters that are lost entirely.
 */

#ifndef DNASIM_CORE_COVERAGE_HH
#define DNASIM_CORE_COVERAGE_HH

#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"

namespace dnasim
{

/** Per-cluster coverage sampler. */
class CoverageModel
{
  public:
    virtual ~CoverageModel() = default;

    /** Number of copies for the cluster at @p cluster_idx. */
    virtual size_t sample(size_t cluster_idx, Rng &rng) const = 0;

    /** Short name for reports. */
    virtual std::string name() const = 0;
};

/** Every cluster gets exactly n copies. */
class FixedCoverage : public CoverageModel
{
  public:
    explicit FixedCoverage(size_t n);

    size_t sample(size_t cluster_idx, Rng &rng) const override;
    std::string name() const override;

  private:
    size_t n_;
};

/**
 * Per-cluster coverages copied from another dataset ("custom
 * coverage" in Table 2.1): cluster i gets coverages[i] copies. An
 * empty table is a valid zero-cluster run.
 */
class CustomCoverage : public CoverageModel
{
  public:
    explicit CustomCoverage(std::vector<size_t> coverages);

    size_t sample(size_t cluster_idx, Rng &rng) const override;
    std::string name() const override;

    size_t numClusters() const { return coverages_.size(); }

  private:
    std::vector<size_t> coverages_;
};

/**
 * Negative-binomial coverage with a hard cap and an independent
 * erasure probability.
 */
class NegativeBinomialCoverage : public CoverageModel
{
  public:
    /**
     * @param mean       target mean coverage
     * @param dispersion the negative binomial r parameter; smaller
     *                   values give a wider spread
     * @param max_cap    coverages above this are clamped (0 = none)
     * @param p_erasure  probability a cluster gets zero copies
     *                   regardless of the draw
     */
    NegativeBinomialCoverage(double mean, double dispersion,
                             size_t max_cap = 0,
                             double p_erasure = 0.0);

    size_t sample(size_t cluster_idx, Rng &rng) const override;
    std::string name() const override;

  private:
    double mean_;
    double dispersion_;
    size_t max_cap_;
    double p_erasure_;
};

} // namespace dnasim

#endif // DNASIM_CORE_COVERAGE_HH
