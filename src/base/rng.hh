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
#include <array>
#include <cstdint>
#include <mutex>
#include <random>
#include <span>
#include <vector>

#include "base/logging.hh"

namespace dnasim
{

/**
 * The 64-bit Mersenne Twister: word for word the sequence of
 * std::mt19937_64 for every seed, with the same seeding recurrence,
 * twist and tempering. The twist selects its matrix term with a mask
 * where libstdc++ branches on each state word's low bit, a branch
 * that mispredicts about half the time. A UniformRandomBitGenerator
 * with the standard engine's range, so the std distributions read
 * the same words from it and return the same values.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    explicit Mt19937_64(uint64_t seed)
    {
        x_[0] = seed;
        for (size_t i = 1; i < kN; ++i) {
            const uint64_t prev = x_[i - 1];
            x_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~uint64_t{0}; }

    result_type
    operator()()
    {
        if (p_ >= kN)
            twist();
        uint64_t z = x_[p_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

    /** Same state and position, as std::mt19937_64's operator==. */
    bool operator==(const Mt19937_64 &) const = default;

  private:
    static constexpr size_t kN = 312;
    static constexpr size_t kM = 156;

    /** Twist one state word from its successor and its m-distant word. */
    static uint64_t
    twisted(uint64_t word, uint64_t next, uint64_t far)
    {
        constexpr uint64_t kUpper = ~uint64_t{0} << 31;
        const uint64_t y = (word & kUpper) | (next & ~kUpper);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
    }

    void
    twist()
    {
        for (size_t k = 0; k < kN - kM; ++k)
            x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
        for (size_t k = kN - kM; k < kN - 1; ++k)
            x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
        x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
        p_ = 0;
    }

    std::array<uint64_t, kN> x_{};
    size_t p_ = kN; ///< next word to temper; kN = twist first
};

/**
 * A seeded pseudo-random source over Mt19937_64 with the sampling
 * helpers the simulator needs.
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

    /**
     * The real in [0, 1) that std::generate_canonical<double, 53>
     * makes of the 64-bit engine word @p word: double(word) / 2^64,
     * clamped below 1. GCC converts a uint64_t to double with a
     * branch on its sign bit; here the two 32-bit halves convert
     * exactly, so their sum is the one correctly rounded operation,
     * and the scaling by a power of two is exact. Fusing the
     * multiply-add changes nothing either: the product is exact.
     */
    static double
    unitFromWord(uint64_t word)
    {
        const double v =
            (static_cast<double>(static_cast<uint32_t>(word >> 32)) *
                 0x1p32 +
             static_cast<double>(static_cast<uint32_t>(word))) *
            0x1p-64;
        // The largest double below 1; every v < 1 is at most this.
        return std::min(v, 0x1.fffffffffffffp-1);
    }

    /**
     * Uniform real in [0, 1): exactly
     * std::uniform_real_distribution<double>(0, 1) on engine().
     */
    double uniform() { return unitFromWord(engine_()); }

    /**
     * Uniform real in [lo, hi): libstdc++'s
     * uniform_real_distribution formula.
     */
    double
    uniform(double lo, double hi)
    {
        DNASIM_ASSERT(lo <= hi, "bad uniform bounds");
        return uniform() * (hi - lo) + lo;
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
    Mt19937_64 &engine() { return engine_; }

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

    Mt19937_64 engine_;
    uint64_t seed_;
};

} // namespace dnasim

#endif // DNASIM_BASE_RNG_HH
