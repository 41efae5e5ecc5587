/**
 * @file
 * Scoped spans with Chrome trace-event / Perfetto JSON output.
 *
 * Span is the one primitive for a pipeline stage. Given a stats
 * Timer it feeds the Timer's interval on every run; while tracing is
 * enabled it also records a complete ("X") event with category and
 * the thread CPU time consumed inside the span, and the buffer
 * serializes to a file that loads directly in chrome://tracing or
 * https://ui.perfetto.dev. When tracing is disabled (the default)
 * the trace half of a Span costs one relaxed atomic load, so spans
 * can stay compiled into hot-ish paths. Given an item total, a span
 * is also a progress phase under its own name (obs/progress.hh):
 * on the progress board, in the OpenMetrics phase gauges and as
 * telemetry phase_begin/phase_end events.
 *
 * The recorded spans, together with the RSS samples the telemetry
 * sampler appends while tracing is on, are the raw material of the
 * hierarchical phase profiler (obs/profile.hh), which nests them
 * into an inclusive/exclusive call tree at snapshot time.
 */

#ifndef DNASIM_OBS_TRACE_HH
#define DNASIM_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/progress.hh"
#include "obs/stats.hh"

namespace dnasim
{
namespace obs
{

/**
 * CPU time consumed by the calling thread, in nanoseconds (0 where
 * no thread CPU clock is available).
 */
uint64_t threadCpuNs();

/** One complete span, as consumed by the phase profiler. */
struct TraceSpan
{
    std::string name;
    std::string cat;
    uint64_t ts_ns = 0;  ///< start, relative to the enable() origin
    uint64_t dur_ns = 0; ///< wall duration
    uint64_t cpu_ns = 0; ///< thread CPU time inside the span
    uint32_t tid = 0;
};

/** One resident-set-size sample, stamped on the trace clock. */
struct RssSample
{
    uint64_t ts_ns = 0; ///< trace-relative timestamp
    uint64_t rss_bytes = 0;
};

/** The process-wide trace buffer. */
class Trace
{
  public:
    static Trace &global();

    /** Start capturing; resets the clock origin and the buffer. */
    void enable();
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Record a complete span (Span's destructor does); the span's
     * tid is set here. No-op when disabled.
     */
    void record(TraceSpan span);

    /**
     * Append an RSS reading stamped now (the telemetry sampler does,
     * once per tick). No-op when disabled or @p rss_bytes is 0.
     */
    void recordRss(uint64_t rss_bytes);

    /** Nanoseconds since enable() (0 when disabled). */
    uint64_t nowNs() const;

    size_t numEvents() const;

    /** Copy of the buffered complete spans. */
    std::vector<TraceSpan> completeSpans() const;

    /** Copy of the RSS samples recorded since enable(). */
    std::vector<RssSample> rssSamples() const;

    /** Serialize as {"traceEvents": [...]} JSON. */
    void writeJson(std::ostream &os) const;

    /** Write the JSON to @p path; returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

    /**
     * Arrange for the trace to be written to @p path at process exit
     * (std::atexit), so an early std::exit or a failure after the
     * trace was enabled still yields a loadable JSON file. The
     * normal shutdown path calls flushExitFile() itself to observe
     * the result; the atexit hook is then a no-op.
     */
    void setExitFlushPath(const std::string &path);

    /**
     * Write the exit-flush file now, once. Returns false only on an
     * actual I/O failure (no path configured or already flushed is
     * success).
     */
    bool flushExitFile();

    /** Drop all buffered spans and RSS samples. */
    void clear();

  private:
    mutable std::mutex mutex_;
    std::vector<TraceSpan> spans_;
    std::vector<RssSample> rss_;
    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point origin_;

    std::mutex flush_mutex_;
    std::string exit_path_;
    bool exit_registered_ = false;
    bool exit_flushed_ = false;
};

/**
 * RAII span over the enclosing scope. With a Timer it records the
 * scope's wall interval into the Timer every time; while tracing is
 * enabled it also records a trace span. A counted span (constructed
 * with an item total, 0 when unknown) is also an open progress phase
 * that the loop advances item by item. The name and category must
 * outlive the scope (string literals, or a string alive across it).
 */
class Span
{
  public:
    /// The item total of a span that is no progress phase.
    static constexpr uint64_t kNoPhase = UINT64_MAX;

    Span(const char *name, const char *cat, uint64_t total = kNoPhase)
        : name_(name), cat_(cat)
    {
        begin(total);
    }

    Span(const char *name, const char *cat, Timer &timer,
         uint64_t total = kNoPhase)
        : name_(name), cat_(cat), timer_(&timer),
          timer_start_(std::chrono::steady_clock::now())
    {
        begin(total);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        if (progress_ != nullptr)
            detail::closeProgress(progress_);
        if (trace_active_)
            endTrace();
        if (timer_ != nullptr) {
            timer_->record(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - timer_start_)
                    .count()));
        }
    }

    /**
     * Mark @p n more items of a counted span complete (one relaxed
     * atomic add; safe from any worker thread).
     */
    void
    advance(uint64_t n = 1)
    {
        progress_->done.fetch_add(n, std::memory_order_relaxed);
    }

  private:
    void
    begin(uint64_t total)
    {
        Trace &trace = Trace::global();
        trace_active_ = trace.enabled();
        if (trace_active_) {
            start_ns_ = trace.nowNs();
            start_cpu_ns_ = threadCpuNs();
        }
        if (total != kNoPhase)
            progress_ = detail::openProgress(name_, total);
    }

    void
    endTrace()
    {
        Trace &trace = Trace::global();
        if (!trace.enabled())
            return; // disabled mid-span; drop it
        const uint64_t end_ns = trace.nowNs();
        const uint64_t end_cpu_ns = threadCpuNs();
        trace.record(TraceSpan{name_, cat_, start_ns_,
                               end_ns - start_ns_,
                               end_cpu_ns - start_cpu_ns_, 0});
    }

    const char *name_;
    const char *cat_;
    Timer *timer_ = nullptr;
    std::chrono::steady_clock::time_point timer_start_;
    uint64_t start_ns_ = 0;
    uint64_t start_cpu_ns_ = 0;
    bool trace_active_ = false;
    detail::ProgressSlot *progress_ = nullptr;
};

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_TRACE_HH
