#include "stats/position_profile.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"

namespace dnasim
{

PositionProfile::PositionProfile(std::vector<double> multipliers)
    : multipliers_(std::move(multipliers))
{
    for (double m : multipliers_)
        DNASIM_ASSERT(m >= 0.0, "negative position multiplier");
    normalize();
}

void
PositionProfile::normalize()
{
    if (multipliers_.empty())
        return;
    double sum = 0.0;
    for (double m : multipliers_)
        sum += m;
    DNASIM_ASSERT(sum > 0.0, "position profile with zero total mass");
    double scale = static_cast<double>(multipliers_.size()) / sum;
    for (double &m : multipliers_)
        m *= scale;
}

PositionProfile
PositionProfile::uniform(size_t len)
{
    DNASIM_ASSERT(len > 0, "uniform profile of zero length");
    return PositionProfile(std::vector<double>(len, 1.0));
}

PositionProfile
PositionProfile::terminalSkew(size_t len, double head_mult,
                              double tail_mult, size_t n_head)
{
    DNASIM_ASSERT(len > 0, "terminalSkew profile of zero length");
    DNASIM_ASSERT(head_mult >= 0.0 && tail_mult >= 0.0,
                  "negative skew multiplier");
    std::vector<double> m(len, 1.0);
    for (size_t i = 0; i < std::min(n_head, len); ++i)
        m[i] = head_mult;
    m[len - 1] = tail_mult;
    return PositionProfile(std::move(m));
}

PositionProfile
PositionProfile::aShaped(size_t len)
{
    DNASIM_ASSERT(len > 0, "aShaped profile of zero length");
    std::vector<double> m(len);
    for (size_t i = 0; i < len; ++i) {
        double u = len == 1 ? 0.5
                            : static_cast<double>(i) /
                                  static_cast<double>(len - 1);
        m[i] = 1.0 - std::abs(2.0 * u - 1.0);
    }
    // Avoid exactly-zero endpoints so every position can still err.
    for (double &x : m)
        x = std::max(x, 1e-3);
    return PositionProfile(std::move(m));
}

PositionProfile
PositionProfile::vShaped(size_t len)
{
    DNASIM_ASSERT(len > 0, "vShaped profile of zero length");
    std::vector<double> m(len);
    for (size_t i = 0; i < len; ++i) {
        double u = len == 1 ? 0.5
                            : static_cast<double>(i) /
                                  static_cast<double>(len - 1);
        m[i] = std::abs(2.0 * u - 1.0);
    }
    for (double &x : m)
        x = std::max(x, 1e-3);
    return PositionProfile(std::move(m));
}

PositionProfile
PositionProfile::fromHistogram(const Histogram &errors, size_t len,
                               double floor)
{
    DNASIM_ASSERT(len > 0, "fromHistogram profile of zero length");
    DNASIM_ASSERT(floor >= 0.0, "negative smoothing floor");
    std::vector<double> m(len, 0.0);
    for (size_t i = 0; i < len; ++i) {
        size_t bin = std::min(i, errors.numBins() > 0
                                     ? errors.numBins() - 1
                                     : size_t(0));
        m[i] = static_cast<double>(errors.count(bin));
    }
    double sum = 0.0;
    for (double x : m)
        sum += x;
    if (sum <= 0.0)
        return PositionProfile(); // no mass: behave as uniform

    // Apply the floor relative to the mean mass.
    double mean = sum / static_cast<double>(len);
    for (double &x : m)
        x = std::max(x, floor * mean);
    return PositionProfile(std::move(m));
}

double
PositionProfile::multiplier(size_t pos, size_t len) const
{
    if (multipliers_.empty() || len == 0)
        return 1.0;
    if (len == multipliers_.size()) {
        size_t p = std::min(pos, multipliers_.size() - 1);
        return multipliers_[p];
    }
    // Rescale by relative position.
    double u = len == 1 ? 0.5
                        : static_cast<double>(std::min(pos, len - 1)) /
                              static_cast<double>(len - 1);
    double x = u * static_cast<double>(multipliers_.size() - 1);
    size_t lo = static_cast<size_t>(x);
    size_t hi = std::min(lo + 1, multipliers_.size() - 1);
    double frac = x - static_cast<double>(lo);
    return multipliers_[lo] * (1.0 - frac) + multipliers_[hi] * frac;
}

std::string
PositionProfile::str() const
{
    if (multipliers_.empty())
        return "uniform";
    std::ostringstream os;
    os << "profile[len=" << multipliers_.size() << " head=("
       << multipliers_.front();
    if (multipliers_.size() > 1)
        os << "," << multipliers_[1];
    os << ") mid=" << multipliers_[multipliers_.size() / 2]
       << " tail=" << multipliers_.back() << "]";
    return os.str();
}

} // namespace dnasim
