/**
 * @file
 * The dnasim stats registry, in the spirit of gem5's Stats framework.
 *
 * A Registry owns named instruments, created on demand and grouped
 * hierarchically by dotted name ("channel.errors.sub"):
 *
 *  - Counter:      monotonically increasing event count. Hot-path
 *                  cheap: each thread increments a private cache-line
 *                  shard with a relaxed store, and shards are merged
 *                  when a snapshot is taken, so concurrent simulation
 *                  threads never contend.
 *  - Gauge:        a signed level that can move both ways.
 *  - Timer:        accumulated wall time over intervals, fed by
 *                  obs::Span (obs/trace.hh); intervals also feed a
 *                  log-bucketed HDR histogram, so snapshots carry
 *                  p50/p90/p99/p999 latencies accurate across the
 *                  ns–minutes range.
 *  - Distribution: a value distribution backed by obs/hdr_histogram
 *                  (count/sum/min/max plus log-bucketed percentiles
 *                  at ~constant memory, mergeable across shards).
 *
 * Instruments live as long as their Registry; references returned by
 * the lookup methods are stable. The process-wide registry
 * (Registry::global()) is never destroyed, so hot paths may cache
 * references in function-local statics. Local Registry instances are
 * for tests; a local registry must outlive the threads that touch
 * its instruments.
 */

#ifndef DNASIM_OBS_STATS_HH
#define DNASIM_OBS_STATS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/hdr_histogram.hh"

namespace dnasim
{
namespace obs
{

namespace detail
{
struct RegistryCore;
} // namespace detail

/** A monotonically increasing event counter (thread-sharded). */
class Counter
{
  public:
    void add(uint64_t n);
    void inc() { add(1); }

    /** Merged value across all live and retired thread shards. */
    uint64_t value() const;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend struct detail::RegistryCore;
    friend class Registry;
    Counter(detail::RegistryCore *core, uint32_t slot, std::string name,
            std::string desc)
        : core_(core), slot_(slot), name_(std::move(name)),
          desc_(std::move(desc))
    {}

    detail::RegistryCore *core_;
    uint32_t slot_;
    std::string name_;
    std::string desc_;
};

/** A signed level (e.g. pool size); set() and add() both allowed. */
class Gauge
{
  public:
    void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
    int64_t value() const { return value_.load(std::memory_order_relaxed); }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend struct detail::RegistryCore;
    friend class Registry;
    Gauge(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    std::atomic<int64_t> value_{0};
    std::string name_;
    std::string desc_;
};

/** Accumulated wall time over timed intervals. */
class Timer
{
  public:
    /** Record one interval of @p ns nanoseconds. */
    void record(uint64_t ns);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t totalNs() const { return total_ns_.load(std::memory_order_relaxed); }
    uint64_t maxNs() const { return max_ns_.load(std::memory_order_relaxed); }

    /** Interval-duration percentile from the HDR histogram. */
    uint64_t percentileNs(double q) const;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend struct detail::RegistryCore;
    friend class Registry;
    Timer(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> total_ns_{0};
    std::atomic<uint64_t> max_ns_{0};
    mutable std::mutex mutex_; ///< guards hist_ only
    HdrHistogram hist_;
    std::string name_;
    std::string desc_;
};

/**
 * A distribution of non-negative integer values, backed by a
 * log-bucketed HdrHistogram: exact below 64, within one log-bucket
 * (<= ~1.6% relative) above, at bounded memory regardless of range.
 * record() takes a short lock, so keep it out of per-base hot loops;
 * per-cluster or coarser is fine.
 */
class Distribution
{
  public:
    void record(uint64_t value);

    uint64_t count() const;
    double sum() const;
    uint64_t min() const;
    uint64_t max() const;
    double mean() const;

    /**
     * Lower bound of the bucket reaching cumulative mass q, clamped
     * to the observed [min, max] (0 if empty).
     */
    uint64_t percentile(double q) const;

    /** Copy of the backing histogram (mergeable across shards). */
    HdrHistogram histogram() const;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend struct detail::RegistryCore;
    friend class Registry;
    Distribution(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    mutable std::mutex mutex_;
    HdrHistogram hist_;
    std::string name_;
    std::string desc_;
};

/** Point-in-time merged view of a registry. */
struct Snapshot
{
    struct CounterVal
    {
        std::string name, desc;
        uint64_t value;
    };
    struct GaugeVal
    {
        std::string name, desc;
        int64_t value;
    };
    struct TimerVal
    {
        std::string name, desc;
        uint64_t count, total_ns, max_ns;
        uint64_t p50_ns = 0, p90_ns = 0, p99_ns = 0, p999_ns = 0;
    };
    struct DistVal
    {
        std::string name, desc;
        uint64_t count;
        double sum, mean;
        uint64_t min, max, p50, p90, p99, p999;
    };

    std::vector<CounterVal> counters;
    std::vector<GaugeVal> gauges;
    std::vector<TimerVal> timers;
    std::vector<DistVal> distributions;

    /** Counter value by name (0 if absent). */
    uint64_t counter(const std::string &name) const;

    bool empty() const
    {
        return counters.empty() && gauges.empty() && timers.empty() &&
               distributions.empty();
    }
};

/** A named collection of instruments. */
class Registry
{
  public:
    Registry();
    ~Registry();
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide registry (never destroyed). */
    static Registry &global();

    /**
     * Find or create an instrument. Dotted names express grouping
     * ("stage.pcr.time"). Looking up an existing name with a
     * different kind panics.
     */
    Counter &counter(const std::string &name,
                     const std::string &desc = "");
    Gauge &gauge(const std::string &name, const std::string &desc = "");
    Timer &timer(const std::string &name, const std::string &desc = "");
    Distribution &distribution(const std::string &name,
                               const std::string &desc = "");

    /** Merged point-in-time view, sorted by name. */
    Snapshot snapshot() const;

    /**
     * Zero every instrument (bench warmup / test isolation). Not
     * linearizable against concurrent writers; call at quiescence.
     */
    void reset();

  private:
    std::shared_ptr<detail::RegistryCore> core_;
};

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_STATS_HH
