/**
 * @file
 * Spatial (positional) error distributions within a strand.
 *
 * The paper's central insight is that the spatial distribution of
 * errors is a key determinant of trace-reconstruction accuracy
 * (section 3.3.2). A PositionProfile captures that distribution as a
 * vector of per-position rate *multipliers*, normalized to mean 1 so
 * that applying a profile never changes a model's aggregate error
 * rate, only where within the strand the errors land.
 */

#ifndef DNASIM_STATS_POSITION_PROFILE_HH
#define DNASIM_STATS_POSITION_PROFILE_HH

#include <string>
#include <vector>

#include "stats/histogram.hh"

namespace dnasim
{

/**
 * Per-position error-rate multipliers over a strand of fixed design
 * length, normalized to mean 1.
 */
class PositionProfile
{
  public:
    /** An empty profile behaves as uniform for any length. */
    PositionProfile() = default;

    /** Uniform profile (all multipliers 1) of length @p len. */
    static PositionProfile uniform(size_t len);

    /**
     * Terminal-skew profile of the kind observed in the Nanopore
     * dataset (Fig. 3.2b): positions 0 .. @p n_head - 1 carry
     * @p head_mult times, and the final position @p tail_mult times,
     * the interior rate, before renormalization to mean 1.
     */
    static PositionProfile terminalSkew(size_t len, double head_mult,
                                        double tail_mult,
                                        size_t n_head = 2);

    /**
     * A-shaped profile (triangular, peak mid-strand): multiplier
     * 2 * (1 - |2u - 1|) at relative position u, mean 1. This is the
     * normalized form of the paper's triangular distribution with
     * a = 0, b = 0.30, mean 0.15 (section 3.4.2).
     */
    static PositionProfile aShaped(size_t len);

    /** V-shaped profile: the inversion of aShaped, 2 * |2u - 1|. */
    static PositionProfile vShaped(size_t len);

    /**
     * Calibrated profile from a positional error histogram: the
     * multiplier of each position is proportional to its observed
     * error mass. Positions past the histogram's bins get multiplier
     * equal to the last bin's. A smoothing floor keeps all
     * multipliers >= @p floor to avoid degenerate zero-rate
     * positions when calibrating from sparse data.
     */
    static PositionProfile fromHistogram(const Histogram &errors,
                                         size_t len, double floor = 0.0);

    /** True if no explicit multipliers are set (uniform behaviour). */
    bool isUniform() const { return multipliers_.empty(); }

    /** Design length this profile was built for (0 if uniform). */
    size_t length() const { return multipliers_.size(); }

    /**
     * Multiplier for position @p pos in a strand of length @p len.
     *
     * If @p len differs from the design length the profile is
     * rescaled by linear interpolation over relative position, so the
     * same shape applies to any strand length.
     */
    double multiplier(size_t pos, size_t len) const;

    /** The raw multiplier vector (empty for uniform). */
    const std::vector<double> &multipliers() const { return multipliers_; }

    /** Short description for reports. */
    std::string str() const;

  private:
    explicit PositionProfile(std::vector<double> multipliers);

    /** Scale so the mean multiplier is exactly 1. */
    void normalize();

    std::vector<double> multipliers_;
};

} // namespace dnasim

#endif // DNASIM_STATS_POSITION_PROFILE_HH
