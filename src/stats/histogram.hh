/**
 * @file
 * Integer-binned histograms used for positional error profiles and
 * length distributions.
 */

#ifndef DNASIM_STATS_HISTOGRAM_HH
#define DNASIM_STATS_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnasim
{

/**
 * A histogram over non-negative integer bins (e.g. strand positions,
 * deletion lengths). Bins grow on demand.
 */
class Histogram
{
  public:
    Histogram() = default;

    /** Construct with @p bins zero-count bins preallocated. */
    explicit Histogram(size_t bins) : counts_(bins, 0) {}

    /** Add @p weight to bin @p bin (bins grow on demand). */
    void add(size_t bin, uint64_t weight = 1);

    /** Count in bin @p bin (0 for bins never touched). */
    uint64_t count(size_t bin) const;

    /** Number of bins (highest touched bin + 1, or preallocation). */
    size_t numBins() const { return counts_.size(); }

    /** Sum of all counts. */
    uint64_t total() const;

    /** Fraction of total mass in bin @p bin (0 if empty histogram). */
    double fraction(size_t bin) const;

    /** All counts as a vector. */
    const std::vector<uint64_t> &counts() const { return counts_; }

    /** Normalized mass per bin (sums to 1; empty if no mass). */
    std::vector<double> normalized() const;

    /** Merge another histogram into this one. */
    void merge(const Histogram &other);

    /** Reset all counts to zero, keeping the bin count. */
    void clear();

  private:
    std::vector<uint64_t> counts_;
};

/**
 * Chi-square distance between two discrete distributions:
 * 0.5 * sum_i (p_i - q_i)^2 / (p_i + q_i), over normalized masses.
 *
 * Bins where both masses are zero contribute nothing. The result is
 * in [0, 1]; 0 means identical distributions.
 */
double chiSquareDistance(const Histogram &a, const Histogram &b);

/** Chi-square distance between pre-normalized mass vectors. */
double chiSquareDistance(const std::vector<double> &p,
                         const std::vector<double> &q);

} // namespace dnasim

#endif // DNASIM_STATS_HISTOGRAM_HH
