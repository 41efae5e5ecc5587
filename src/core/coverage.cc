#include "core/coverage.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace dnasim
{

FixedCoverage::FixedCoverage(size_t n)
    : n_(n)
{
    DNASIM_ASSERT(n > 0, "fixed coverage must be positive");
}

size_t
FixedCoverage::sample(size_t, Rng &) const
{
    return n_;
}

std::string
FixedCoverage::name() const
{
    std::ostringstream os;
    os << "fixed(" << n_ << ")";
    return os.str();
}

CustomCoverage::CustomCoverage(std::vector<size_t> coverages)
    : coverages_(std::move(coverages))
{}

size_t
CustomCoverage::sample(size_t cluster_idx, Rng &) const
{
    DNASIM_ASSERT(cluster_idx < coverages_.size(),
                  "cluster index ", cluster_idx,
                  " beyond custom coverage table of size ",
                  coverages_.size());
    return coverages_[cluster_idx];
}

std::string
CustomCoverage::name() const
{
    return "custom";
}

NegativeBinomialCoverage::NegativeBinomialCoverage(double mean,
                                                   double dispersion,
                                                   size_t max_cap,
                                                   double p_erasure)
    : mean_(mean), dispersion_(dispersion), max_cap_(max_cap),
      p_erasure_(p_erasure)
{
    DNASIM_ASSERT(mean > 0.0, "non-positive coverage mean");
    DNASIM_ASSERT(dispersion > 0.0, "non-positive dispersion");
    DNASIM_ASSERT(p_erasure >= 0.0 && p_erasure <= 1.0,
                  "bad erasure probability");
}

size_t
NegativeBinomialCoverage::sample(size_t, Rng &rng) const
{
    if (p_erasure_ > 0.0 && rng.bernoulli(p_erasure_))
        return 0;
    // Negative binomial with mean m and size r has
    // p = r / (r + m) for the per-trial success probability.
    double p = dispersion_ / (dispersion_ + mean_);
    auto draw =
        static_cast<size_t>(rng.negativeBinomial(dispersion_, p));
    if (max_cap_ > 0)
        draw = std::min(draw, max_cap_);
    return draw;
}

std::string
NegativeBinomialCoverage::name() const
{
    std::ostringstream os;
    os << "negbin(mean=" << mean_ << ",r=" << dispersion_ << ")";
    return os.str();
}

} // namespace dnasim
