/**
 * @file
 * The interval snapshot engine behind streaming telemetry.
 *
 * A TelemetrySampler thread takes cheap, consistent point-in-time
 * snapshots of a stats Registry on a fixed cadence, diffs each
 * snapshot against the previous one into per-interval counter rates,
 * attaches the current RSS, progress-board state and the event-
 * journal entries that arrived since the last tick, and hands the
 * resulting IntervalSample to every attached TelemetrySink (the
 * OpenMetrics file writer, the dnasim.telemetry.v1 JSONL stream).
 * It is the process's only background sampling thread: while tracing
 * is enabled each tick also appends its RSS reading to the trace,
 * where the phase profiler (obs/profile.hh) attributes it to the
 * phases open at that moment.
 *
 * Consistency model: one sample is built from a single
 * Registry::snapshot() call, which merges all thread shards under
 * the registry lock — counters within a sample are mutually
 * consistent to within the duration of that merge (no torn
 * per-counter reads; counters may differ by the handful of events
 * that land mid-merge). Rates are computed from consecutive merged
 * snapshots, so over- and under-counts cancel across intervals.
 *
 * The sampler never touches simulation state and only writes to its
 * own sinks and stderr; all data outputs remain byte-identical with
 * telemetry enabled. stop() takes one final sample (so short runs
 * still produce at least one) and closes the sinks.
 */

#ifndef DNASIM_OBS_SNAPSHOT_HH
#define DNASIM_OBS_SNAPSHOT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/events.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"

namespace dnasim
{
namespace obs
{

/** Per-interval movement of one counter. */
struct CounterRate
{
    std::string name;
    uint64_t value = 0; ///< cumulative at this sample
    uint64_t delta = 0; ///< increase over the interval
    double per_sec = 0.0;
};

/** One tick of the sampler: cumulative state plus interval deltas. */
struct IntervalSample
{
    uint64_t seq = 0;         ///< 1-based tick number
    uint64_t mono_ns = 0;     ///< monotonicNowNs() at the tick
    uint64_t interval_ns = 0; ///< time since the previous tick
    bool final_sample = false; ///< taken by stop()
    Snapshot snap;            ///< merged cumulative snapshot
    std::vector<CounterRate> rates;
    uint64_t rss_bytes = 0;
    std::vector<ProgressState> progress;
    /** Journal entries that arrived since the previous tick. */
    std::vector<Event> events;
};

/**
 * Per-interval counter rates from two consecutive snapshots.
 * Counters absent from @p prev (registered mid-run) rate from zero;
 * @p interval_ns <= 0 yields zero rates.
 */
std::vector<CounterRate> computeRates(const Snapshot &prev,
                                      const Snapshot &cur,
                                      uint64_t interval_ns);

/** Consumer of interval samples (OpenMetrics, JSONL, tests). */
class TelemetrySink
{
  public:
    virtual ~TelemetrySink() = default;

    /** One sampler tick. Called from the sampler thread. */
    virtual void onSample(const IntervalSample &sample) = 0;

    /** Final flush; the sampler has stopped. */
    virtual void close() {}
};

/** The background sampler driving all telemetry sinks. */
class TelemetrySampler
{
  public:
    static TelemetrySampler &global();

    TelemetrySampler() = default;
    ~TelemetrySampler();
    TelemetrySampler(const TelemetrySampler &) = delete;
    TelemetrySampler &operator=(const TelemetrySampler &) = delete;

    /** Attach a sink (before start()). */
    void addSink(std::shared_ptr<TelemetrySink> sink);

    /** Drop all sinks (test isolation; sampler must be stopped). */
    void clearSinks();

    /**
     * Start sampling @p registry (nullptr = the global registry)
     * every @p period_ms. No-op when already running.
     */
    void start(uint64_t period_ms = 500,
               const Registry *registry = nullptr);

    /**
     * Take one final sample, stop the thread and close the sinks.
     * No-op when not running.
     */
    void stop();

    bool running() const { return running_.load(); }

    /** Ticks taken since start() (including the final one). */
    uint64_t samplesTaken() const { return samples_taken_.load(); }

    /**
     * Build and dispatch one sample now, synchronously (test entry
     * point; also used for the final sample in stop()).
     */
    void sampleNow(bool final_sample = false);

  private:
    void loop(uint64_t period_ms);

    std::vector<std::shared_ptr<TelemetrySink>> sinks_;
    const Registry *registry_ = nullptr;

    std::thread thread_;
    std::atomic<bool> running_{false};
    std::atomic<uint64_t> samples_taken_{0};
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    bool stop_requested_ = false;

    /** Sampling state; only touched from sampleNow (serialized). */
    std::mutex sample_mutex_;
    Snapshot prev_snap_;
    uint64_t prev_ns_ = 0;
    uint64_t seq_ = 0;
    uint64_t last_event_seq_ = 0;
};

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_SNAPSHOT_HH
