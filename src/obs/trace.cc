#include "obs/trace.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#endif

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/outfile.hh"

namespace dnasim
{
namespace obs
{

namespace
{

/** Small dense thread ids for the trace's tid field. */
uint32_t
threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t id = next.fetch_add(1);
    return id;
}

void
flushTraceAtExit()
{
    Trace::global().flushExitFile();
}

} // anonymous namespace

uint64_t
threadCpuNs()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    struct timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
               static_cast<uint64_t>(ts.tv_nsec);
    }
#endif
    return 0;
}

Trace &
Trace::global()
{
    static Trace *t = new Trace();
    return *t;
}

void
Trace::enable()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    rss_.clear();
    origin_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_relaxed);
}

void
Trace::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

uint64_t
Trace::nowNs() const
{
    if (!enabled())
        return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
}

void
Trace::record(TraceSpan span)
{
    if (!enabled())
        return;
    span.tid = threadId();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
Trace::recordRss(uint64_t rss_bytes)
{
    if (!enabled() || rss_bytes == 0)
        return;
    const uint64_t ts = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    rss_.push_back(RssSample{ts, rss_bytes});
}

size_t
Trace::numEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<TraceSpan>
Trace::completeSpans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<RssSample>
Trace::rssSamples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rss_;
}

void
Trace::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w(os, 0);
    w.beginObject();
    w.value("displayTimeUnit", "ms");
    w.beginArray("traceEvents");
    for (const auto &e : spans_) {
        w.beginObject();
        w.value("name", e.name);
        w.value("cat", e.cat.empty() ? "dnasim" : e.cat);
        w.value("ph", "X");
        // Chrome trace timestamps are microseconds; keep sub-us
        // precision as decimals.
        w.value("ts", static_cast<double>(e.ts_ns) / 1000.0);
        w.value("dur", static_cast<double>(e.dur_ns) / 1000.0);
        w.value("pid", static_cast<uint64_t>(1));
        w.value("tid", static_cast<uint64_t>(e.tid));
        if (e.cpu_ns > 0) {
            w.beginObject("args");
            w.value("cpu_ns", e.cpu_ns);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

bool
Trace::writeFile(const std::string &path) const
{
    std::string error;
    if (!prepareOutputPath(path, &error)) {
        warn("trace: ", error);
        return false;
    }
    std::ofstream os(path);
    if (!os) {
        warn("trace: cannot open '", path,
             "': ", std::strerror(errno));
        return false;
    }
    writeJson(os);
    return os.good();
}

void
Trace::setExitFlushPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(flush_mutex_);
    exit_path_ = path;
    exit_flushed_ = false;
    if (!exit_registered_) {
        exit_registered_ = true;
        std::atexit(flushTraceAtExit);
    }
}

bool
Trace::flushExitFile()
{
    std::lock_guard<std::mutex> lock(flush_mutex_);
    if (exit_path_.empty() || exit_flushed_)
        return true;
    exit_flushed_ = true;
    return writeFile(exit_path_);
}

void
Trace::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    rss_.clear();
}

} // namespace obs
} // namespace dnasim
