#include "par/thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "base/logging.hh"
#include "obs/provenance.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace dnasim
{
namespace par
{

namespace
{

/** Cached obs instruments for the pool (global registry, stable). */
struct ParStats
{
    obs::Gauge &threads;
    obs::Counter &regions;
    obs::Counter &serial_regions;
    obs::Counter &items;
    obs::Counter &steals;
    obs::Counter &busy_ns;
    obs::Counter &cpu_ns;
    obs::Timer &region_time;
    obs::Distribution &worker_busy_us;

    static ParStats &
    get()
    {
        auto &reg = obs::Registry::global();
        static ParStats ps{
            reg.gauge("par.threads", "configured worker thread count"),
            reg.counter("par.regions", "parallel regions executed"),
            reg.counter("par.serial_regions",
                        "regions degraded to the serial path"),
            reg.counter("par.items", "indices processed in parallel "
                                     "regions"),
            reg.counter("par.steals", "work-stealing range transfers"),
            reg.counter("par.busy_ns", "nanoseconds of worker busy "
                                       "time across all regions"),
            reg.counter("par.cpu_ns",
                        "thread CPU nanoseconds inside parallel "
                        "loop bodies (busy minus involuntary waits)"),
            reg.timer("par.region_time",
                      "wall time of parallel regions"),
            reg.distribution("par.worker.busy_us",
                             "per-participant busy microseconds per "
                             "region (load-balance evidence)"),
        };
        return ps;
    }
};

std::atomic<size_t> configured_threads{0}; // 0 = not yet resolved

/** The global pool once created, so setThreads can resize it. */
std::atomic<ThreadPool *> global_pool{nullptr};

thread_local bool in_region = false;

/** Pack a half-open [lo, hi) range into one atomic word. */
constexpr uint64_t
pack(uint32_t lo, uint32_t hi)
{
    return (static_cast<uint64_t>(hi) << 32) | lo;
}

constexpr uint32_t
rangeLo(uint64_t r)
{
    return static_cast<uint32_t>(r);
}

constexpr uint32_t
rangeHi(uint64_t r)
{
    return static_cast<uint32_t>(r >> 32);
}

/** Pop up to @p grain indices from the front of @p range. */
bool
popChunk(std::atomic<uint64_t> &range, uint32_t grain, uint32_t &lo,
         uint32_t &hi)
{
    uint64_t r = range.load(std::memory_order_relaxed);
    for (;;) {
        uint32_t l = rangeLo(r), h = rangeHi(r);
        if (l >= h)
            return false;
        uint32_t take = std::min(grain, h - l);
        if (range.compare_exchange_weak(r, pack(l + take, h),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
            lo = l;
            hi = l + take;
            return true;
        }
    }
}

/**
 * Steal the upper half of @p range, leaving the lower half (and any
 * single remaining index) to its owner.
 */
bool
stealHalf(std::atomic<uint64_t> &range, uint32_t &lo, uint32_t &hi)
{
    uint64_t r = range.load(std::memory_order_relaxed);
    for (;;) {
        uint32_t l = rangeLo(r), h = rangeHi(r);
        uint32_t mid = l + (h > l ? (h - l + 1) / 2 : 0);
        if (mid >= h)
            return false;
        if (range.compare_exchange_weak(r, pack(l, mid),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
            lo = mid;
            hi = h;
            return true;
        }
    }
}

} // anonymous namespace

size_t
defaultThreads()
{
    if (const char *env = std::getenv("DNASIM_THREADS")) {
        char *end = nullptr;
        const long long v = std::strtoll(env, &end, 10);
        if (end != env && *end == '\0' && v > 0 &&
            static_cast<unsigned long long>(v) <= kMaxThreads)
            return static_cast<size_t>(v);
        warn("ignoring invalid DNASIM_THREADS='", env, "' (expected 1..",
             kMaxThreads, ")");
    }
    size_t hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
setThreads(size_t n)
{
    if (n == 0)
        n = defaultThreads();
    DNASIM_ASSERT(n <= kMaxThreads, "thread count ", n, " above ",
                  kMaxThreads);
    configured_threads.store(n, std::memory_order_relaxed);
    ParStats::get().threads.set(static_cast<int64_t>(n));
    obs::setProvenanceThreads(n);
    // A pool that already exists was sized for the previous setting;
    // re-fit it (callers only change the count at quiescence).
    if (ThreadPool *pool = global_pool.load(std::memory_order_acquire))
        pool->resize(n - 1);
}

size_t
numThreads()
{
    size_t n = configured_threads.load(std::memory_order_relaxed);
    if (n == 0) {
        n = defaultThreads();
        // Benign race: every loser computes the same value.
        configured_threads.store(n, std::memory_order_relaxed);
        ParStats::get().threads.set(static_cast<int64_t>(n));
        obs::setProvenanceThreads(n);
    }
    return n;
}

bool
inParallelRegion()
{
    return in_region;
}

/** One parallel region: shards, completion state, error funnel. */
struct ThreadPool::Task
{
    /** A participant's index range, padded against false sharing. */
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> range{0};
    };

    std::vector<Shard> shards;
    std::atomic<size_t> remaining{0};
    std::atomic<bool> cancelled{false};
    size_t offset = 0;
    uint32_t grain = 1;
    const std::function<void(size_t, size_t)> *body = nullptr;

    // First exception thrown by the body (rethrown on the caller).
    std::mutex error_mutex;
    std::exception_ptr error;

    // Completion of the pool jobs spawned for this region, so the
    // caller can safely destroy the task.
    std::mutex done_mutex;
    std::condition_variable done_cv;
    size_t jobs_finished = 0;
    size_t jobs_spawned = 0;
};

ThreadPool &
ThreadPool::global()
{
    // Leaked: worker threads must never outlive the pool object, and
    // static destruction order against atexit report writers is
    // otherwise fragile.
    static ThreadPool *pool = [] {
        auto *p = new ThreadPool(numThreads() - 1);
        global_pool.store(p, std::memory_order_release);
        return p;
    }();
    return *pool;
}

ThreadPool::ThreadPool(size_t threads)
{
    resize(threads);
}

ThreadPool::~ThreadPool()
{
    resize(0);
}

void
ThreadPool::resize(size_t workers)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : workers_)
        t.join();
    workers_.clear();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = false;
        DNASIM_ASSERT(queue_.empty(),
                      "thread pool resized with queued work");
    }
    workers_.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            job = std::move(queue_.back());
            queue_.pop_back();
        }
        job();
    }
}

void
ThreadPool::runTask(Task &task, size_t self)
{
    ParStats &ps = ParStats::get();
    const bool was_in_region = in_region;
    in_region = true;
    uint64_t busy_ns = 0;
    uint64_t cpu_ns = 0;
    uint64_t processed = 0;

    auto process = [&](uint32_t lo, uint32_t hi) {
        if (!task.cancelled.load(std::memory_order_relaxed)) {
            auto start = std::chrono::steady_clock::now();
            const uint64_t start_cpu = obs::threadCpuNs();
            try {
                (*task.body)(task.offset + lo, task.offset + hi);
            } catch (...) {
                task.cancelled.store(true,
                                     std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(task.error_mutex);
                if (!task.error)
                    task.error = std::current_exception();
            }
            busy_ns += static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count());
            cpu_ns += obs::threadCpuNs() - start_cpu;
        }
        processed += hi - lo;
        // release: pairs with the caller's acquire load so chunk
        // side effects are visible once remaining reaches zero.
        task.remaining.fetch_sub(hi - lo,
                                 std::memory_order_acq_rel);
    };

    uint32_t lo, hi;
    for (;;) {
        if (popChunk(task.shards[self].range, task.grain, lo, hi)) {
            process(lo, hi);
            continue;
        }
        bool stole = false;
        for (size_t k = 1; k < task.shards.size() && !stole; ++k) {
            size_t victim = (self + k) % task.shards.size();
            if (stealHalf(task.shards[victim].range, lo, hi)) {
                // Our shard is drained, so a plain store cannot
                // discard live indices; thieves only CAS on
                // non-empty ranges.
                task.shards[self].range.store(
                    pack(lo, hi), std::memory_order_release);
                ps.steals.inc();
                stole = true;
            }
        }
        if (stole)
            continue;
        if (task.remaining.load(std::memory_order_acquire) == 0)
            break;
        // Tail of the region: chunks are in flight elsewhere.
        std::this_thread::yield();
    }

    in_region = was_in_region;
    ps.busy_ns.add(busy_ns);
    ps.cpu_ns.add(cpu_ns);
    ps.items.add(processed);
    ps.worker_busy_us.record(busy_ns / 1000);
}

void
ThreadPool::forRange(size_t begin, size_t end, size_t grain,
                     size_t max_participants,
                     const std::function<void(size_t, size_t)> &body)
{
    DNASIM_ASSERT(end >= begin, "bad parallel range");
    const size_t n = end - begin;
    if (n == 0)
        return;
    DNASIM_ASSERT(n < (uint64_t{1} << 32),
                  "parallel range too large: ", n);

    ParStats &ps = ParStats::get();
    size_t participants =
        std::min({max_participants, numWorkers() + 1, n});
    if (participants <= 1 || in_region) {
        ps.serial_regions.inc();
        body(begin, end);
        return;
    }

    ps.regions.inc();
    obs::Span region_span("par.region", "par", ps.region_time);

    Task task;
    task.offset = begin;
    task.grain = static_cast<uint32_t>(
        std::max<size_t>(1, std::min<size_t>(grain, UINT32_MAX)));
    task.body = &body;
    task.remaining.store(n, std::memory_order_relaxed);
    task.shards = std::vector<Task::Shard>(participants);
    // Even initial partition; stealing rebalances from there.
    for (size_t w = 0; w < participants; ++w) {
        uint32_t lo = static_cast<uint32_t>(n * w / participants);
        uint32_t hi =
            static_cast<uint32_t>(n * (w + 1) / participants);
        task.shards[w].range.store(pack(lo, hi),
                                   std::memory_order_relaxed);
    }

    task.jobs_spawned = participants - 1;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t w = 1; w < participants; ++w) {
            queue_.emplace_back([&task, w, this] {
                runTask(task, w);
                std::lock_guard<std::mutex> done_lock(
                    task.done_mutex);
                ++task.jobs_finished;
                task.done_cv.notify_all();
            });
        }
    }
    cv_.notify_all();

    runTask(task, 0);

    {
        std::unique_lock<std::mutex> lock(task.done_mutex);
        task.done_cv.wait(lock, [&task] {
            return task.jobs_finished == task.jobs_spawned;
        });
    }
    if (task.error)
        std::rethrow_exception(task.error);
}

} // namespace par
} // namespace dnasim
