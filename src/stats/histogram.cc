#include "stats/histogram.hh"

#include <algorithm>

#include "base/logging.hh"

namespace dnasim
{

void
Histogram::add(size_t bin, uint64_t weight)
{
    if (bin >= counts_.size())
        counts_.resize(bin + 1, 0);
    counts_[bin] += weight;
}

uint64_t
Histogram::count(size_t bin) const
{
    return bin < counts_.size() ? counts_[bin] : 0;
}

uint64_t
Histogram::total() const
{
    uint64_t sum = 0;
    for (uint64_t c : counts_)
        sum += c;
    return sum;
}

double
Histogram::fraction(size_t bin) const
{
    uint64_t t = total();
    if (t == 0)
        return 0.0;
    return static_cast<double>(count(bin)) / static_cast<double>(t);
}

std::vector<double>
Histogram::normalized() const
{
    uint64_t t = total();
    std::vector<double> out(counts_.size(), 0.0);
    if (t == 0)
        return out;
    for (size_t i = 0; i < counts_.size(); ++i)
        out[i] = static_cast<double>(counts_[i]) / static_cast<double>(t);
    return out;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
}

void
Histogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
}

double
chiSquareDistance(const Histogram &a, const Histogram &b)
{
    return chiSquareDistance(a.normalized(), b.normalized());
}

double
chiSquareDistance(const std::vector<double> &p, const std::vector<double> &q)
{
    size_t n = std::max(p.size(), q.size());
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double pi = i < p.size() ? p[i] : 0.0;
        double qi = i < q.size() ? q[i] : 0.0;
        double denom = pi + qi;
        if (denom <= 0.0)
            continue;
        double d = pi - qi;
        acc += d * d / denom;
    }
    return 0.5 * acc;
}

} // namespace dnasim
