#include "stats/distributions.hh"

#include <algorithm>

#include "base/logging.hh"

namespace dnasim
{

CumulativeSampler::CumulativeSampler(std::vector<double> weights)
{
    double acc = 0.0;
    cumulative_.reserve(weights.size());
    for (double w : weights) {
        DNASIM_ASSERT(w >= 0.0, "negative weight in CumulativeSampler");
        acc += w;
        cumulative_.push_back(acc);
    }
    DNASIM_ASSERT(acc > 0.0, "CumulativeSampler with zero total weight");
    for (double &c : cumulative_)
        c /= acc;
}

size_t
CumulativeSampler::sample(Rng &rng) const
{
    DNASIM_ASSERT(valid(), "sampling from empty CumulativeSampler");
    double u = rng.uniform();
    auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    if (it == cumulative_.end())
        return cumulative_.size() - 1;
    return static_cast<size_t>(it - cumulative_.begin());
}

double
CumulativeSampler::probability(size_t i) const
{
    DNASIM_ASSERT(i < cumulative_.size(), "category out of range");
    double lo = i == 0 ? 0.0 : cumulative_[i - 1];
    return cumulative_[i] - lo;
}

} // namespace dnasim
