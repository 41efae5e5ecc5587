/**
 * @file
 * Deterministic parallel execution for the simulator.
 *
 * The pipeline's hot loops (channel transmission, profiling,
 * clustering probes, per-cluster reconstruction) are all
 * embarrassingly parallel over an index range, but determinism is a
 * hard requirement: a run at --threads 8 must be byte-identical to
 * the serial run. The layer therefore separates *what* is computed
 * per index (pure function of the index plus pre-forked per-index
 * RNG streams) from *where* it runs:
 *
 *  - ThreadPool: a lazily started, process-wide pool of worker
 *    threads executing work-stealing index ranges. Each participant
 *    owns a contiguous shard of [begin, end); when its shard drains
 *    it steals the upper half of a victim's remaining range, so load
 *    imbalance (clusters of wildly different coverage) is absorbed
 *    without any scheduling decision ever affecting *results* —
 *    every index is processed exactly once and outputs land in
 *    per-index slots.
 *
 *  - parallelFor / parallelTransform: order-preserving helpers over
 *    [begin, end). With 1 configured thread (or tiny ranges, or when
 *    called from inside a worker) they degrade to the plain serial
 *    loop, so `--threads 1` exercises the exact serial code path.
 *
 * Thread count is a process-wide setting (setThreads), surfaced as
 * the CLI/bench `--threads` flag, defaulting to the DNASIM_THREADS
 * environment variable or std::thread::hardware_concurrency().
 * Utilization is recorded in the obs registry: gauge `par.threads`,
 * counters `par.regions` / `par.items` / `par.steals` /
 * `par.busy_ns`, and distribution `par.worker.busy_us` (per-worker
 * busy time per region — the balance evidence).
 */

#ifndef DNASIM_PAR_THREAD_POOL_HH
#define DNASIM_PAR_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace dnasim
{
namespace par
{

/**
 * Largest accepted thread count. The CLI rejects a larger --threads
 * and defaultThreads() ignores a larger DNASIM_THREADS, so a typo
 * cannot ask the pool for hundreds of thousands of workers.
 */
inline constexpr size_t kMaxThreads = 1024;

/**
 * DNASIM_THREADS env var (1..kMaxThreads), else
 * hardware_concurrency(), at least 1.
 */
size_t defaultThreads();

/**
 * Set the process-wide thread count, at most kMaxThreads (0 restores
 * the default). Takes effect on the next parallel region; call at
 * quiescence, not from inside one.
 */
void setThreads(size_t n);

/** The configured process-wide thread count (>= 1). */
size_t numThreads();

/** True while the calling thread is executing inside a region. */
bool inParallelRegion();

/** The work-stealing pool behind parallelFor. */
class ThreadPool
{
  public:
    /** The lazily created process-wide pool (never destroyed). */
    static ThreadPool &global();

    explicit ThreadPool(size_t threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker threads owned by the pool (participants - 1). */
    size_t numWorkers() const { return workers_.size(); }

    /**
     * Join the current workers and spawn @p workers new ones. Must
     * not be called while a region is in flight.
     */
    void resize(size_t workers);

    /**
     * Run @p body over chunks of [begin, end) on up to
     * @p max_participants threads (the caller participates). @p body
     * receives half-open sub-ranges [lo, hi); every index is covered
     * exactly once. Chunks are at most @p grain indices. Exceptions
     * from @p body cancel remaining work and the first one is
     * rethrown on the calling thread.
     */
    void forRange(size_t begin, size_t end, size_t grain,
                  size_t max_participants,
                  const std::function<void(size_t, size_t)> &body);

  private:
    struct Task;

    void workerLoop();
    void runTask(Task &task, size_t self);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::function<void()>> queue_;
    bool stop_ = false;
};

namespace detail
{
/** Serial fallback shared by the helpers below. */
template <typename Fn>
void
serialFor(size_t begin, size_t end, Fn &&fn)
{
    for (size_t i = begin; i < end; ++i)
        fn(i);
}
} // namespace detail

/**
 * Apply @p fn to every index of [begin, end), in parallel when more
 * than one thread is configured. @p grain is the maximum chunk size
 * handed to one worker at a time (1 = finest balancing; raise it for
 * cheap per-index work). Deterministic: results must only depend on
 * the index, never on execution order.
 */
template <typename Fn>
void
parallelFor(size_t begin, size_t end, Fn &&fn, size_t grain = 1)
{
    if (end <= begin)
        return;
    const size_t n = end - begin;
    const size_t threads = numThreads();
    if (threads <= 1 || n <= grain || inParallelRegion()) {
        detail::serialFor(begin, end, fn);
        return;
    }
    ThreadPool::global().forRange(
        begin, end, grain, threads, [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                fn(i);
        });
}

/**
 * Order-preserving map: out[i] = fn(i) for i in [0, n). The result
 * type must be default-constructible and movable.
 */
template <typename Fn>
auto
parallelTransform(size_t n, Fn &&fn, size_t grain = 1)
    -> std::vector<decltype(fn(size_t{}))>
{
    std::vector<decltype(fn(size_t{}))> out(n);
    parallelFor(
        0, n, [&](size_t i) { out[i] = fn(i); }, grain);
    return out;
}

} // namespace par
} // namespace dnasim

#endif // DNASIM_PAR_THREAD_POOL_HH
