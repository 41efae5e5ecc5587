/**
 * @file
 * Deterministic random-number generation for the simulator.
 *
 * Every stochastic component in dnasim draws from an explicitly passed
 * Rng so that experiments are reproducible from a single seed. Rng
 * also supports forking independent child streams, which lets
 * parallel or per-cluster generation stay deterministic regardless of
 * evaluation order.
 */

#ifndef DNASIM_BASE_RNG_HH
#define DNASIM_BASE_RNG_HH

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <random>
#include <span>
#include <vector>

#include "base/logging.hh"

namespace dnasim
{

/**
 * A seeded pseudo-random source wrapping std::mt19937_64 with the
 * sampling helpers the simulator needs.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(uint64_t seed = 0x5eed'da7a'5eed'da7aULL)
        : engine_(seed), seed_(seed)
    {}

    /** The seed this stream was constructed with. */
    uint64_t seed() const { return seed_; }

    /**
     * Fork an independent child stream.
     *
     * The child seed mixes the parent seed with @p salt via
     * splitmix64 so children with different salts are decorrelated.
     * Forking reads only the seed, never the engine state, so child
     * i is a pure function of (seed, i) and concurrent forks from a
     * parallel loop body are race-free: per-cluster work forks
     * rng.fork(i) inline and draws the exact numbers the serial loop
     * would (DESIGN.md, "Deterministic parallelism").
     */
    Rng
    fork(uint64_t salt) const
    {
        return Rng(mix(seed_, salt));
    }

    /** Uniform real in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Uniform real in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        DNASIM_ASSERT(lo <= hi, "bad uniform bounds");
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        DNASIM_ASSERT(lo <= hi, "bad uniformInt bounds");
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
    }

    /** Uniform index in [0, n). @p n must be positive. */
    size_t
    index(size_t n)
    {
        DNASIM_ASSERT(n > 0, "index() over empty range");
        return static_cast<size_t>(uniformInt(0, static_cast<int64_t>(n) - 1));
    }

    /** Bernoulli trial with success probability @p p (clamped to [0,1]). */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Standard normal draw scaled to N(mean, stddev). */
    double
    gaussian(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Poisson draw with rate @p lambda. */
    int64_t
    poisson(double lambda)
    {
        DNASIM_ASSERT(lambda >= 0.0, "negative poisson rate");
        if (lambda == 0.0)
            return 0;
        // libstdc++'s sampler calls lgamma(), which writes the global
        // signgam: draws from parallel per-cluster streams (coverage
        // sampling in the channel simulator) would race on it.
        static std::mutex lgamma_mutex;
        std::lock_guard<std::mutex> lock(lgamma_mutex);
        return std::poisson_distribution<int64_t>(lambda)(engine_);
    }

    /** Binomial draw over @p n trials with success probability @p p. */
    int64_t
    binomial(int64_t n, double p)
    {
        DNASIM_ASSERT(n >= 0 && p >= 0.0 && p <= 1.0, "bad binomial params");
        if (n == 0 || p == 0.0)
            return 0;
        return std::binomial_distribution<int64_t>(n, p)(engine_);
    }

    /**
     * Negative-binomial draw: the number of failures before the r-th
     * success with per-trial success probability @p p.
     */
    int64_t
    negativeBinomial(double r, double p)
    {
        DNASIM_ASSERT(r > 0.0 && p > 0.0 && p <= 1.0,
                      "bad negative binomial params");
        // Gamma-Poisson mixture supports non-integral r.
        std::gamma_distribution<double> gamma(r, (1.0 - p) / p);
        return poisson(gamma(engine_));
    }

    /**
     * Sample an index from an unnormalized weight vector.
     *
     * Weights must be non-negative with a positive sum.
     */
    size_t
    discrete(std::span<const double> weights)
    {
        double total = 0.0;
        for (double w : weights) {
            DNASIM_ASSERT(w >= 0.0, "negative discrete weight");
            total += w;
        }
        DNASIM_ASSERT(total > 0.0, "discrete() with zero total weight");
        double x = uniform() * total;
        double acc = 0.0;
        for (size_t i = 0; i < weights.size(); ++i) {
            acc += weights[i];
            if (x < acc)
                return i;
        }
        return weights.size() - 1; // floating-point slack
    }

    /** Fisher-Yates shuffle of an arbitrary random-access container. */
    template <typename Container>
    void
    shuffle(Container &c)
    {
        std::shuffle(c.begin(), c.end(), engine_);
    }

    /** Pick a uniformly random element from a non-empty container. */
    template <typename Container>
    const typename Container::value_type &
    pick(const Container &c)
    {
        DNASIM_ASSERT(!c.empty(), "pick() from empty container");
        return c[index(c.size())];
    }

    /** Access the raw engine for std distributions not wrapped here. */
    std::mt19937_64 &engine() { return engine_; }

  private:
    /** splitmix64-based seed mixing. */
    static uint64_t
    mix(uint64_t a, uint64_t b)
    {
        uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::mt19937_64 engine_;
    uint64_t seed_;
};

} // namespace dnasim

#endif // DNASIM_BASE_RNG_HH
