/**
 * @file
 * The background sampler: the process's only polling thread.
 *
 * A TelemetrySampler wakes on a fixed period and does two jobs per
 * tick. It reads the current RSS and, while tracing is enabled,
 * appends it to the trace, where the phase profiler (obs/profile.hh)
 * attributes it to the phases open at that moment (--profile). Then
 * it paints the --progress heartbeat (obs/progress.hh), a no-op
 * unless the heartbeat is enabled.
 *
 * The sampler never touches simulation state and writes only to the
 * trace buffer and stderr; all data outputs remain byte-identical
 * with it running. stop() takes one final tick, so short runs still
 * get at least one RSS reading.
 */

#ifndef DNASIM_OBS_SNAPSHOT_HH
#define DNASIM_OBS_SNAPSHOT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace dnasim
{
namespace obs
{

/** Sampler period while the --progress heartbeat is painted. */
inline constexpr uint64_t kHeartbeatPeriodMs = 500;

/** Sampler period when only --profile wants the RSS series. */
inline constexpr uint64_t kProfilePeriodMs = 25;

/** The background sampler feeding the RSS series and heartbeat. */
class TelemetrySampler
{
  public:
    static TelemetrySampler &global();

    TelemetrySampler() = default;
    ~TelemetrySampler();
    TelemetrySampler(const TelemetrySampler &) = delete;
    TelemetrySampler &operator=(const TelemetrySampler &) = delete;

    /** Tick every @p period_ms. No-op when already running. */
    void start(uint64_t period_ms);

    /**
     * Stop the thread, take one final tick and erase the heartbeat
     * line. No-op when not running.
     */
    void stop();

    bool running() const { return running_.load(); }

    /** Ticks taken since start() (including the final one). */
    uint64_t samplesTaken() const { return samples_taken_.load(); }

    /**
     * Take one tick now, synchronously (test entry point; also the
     * final tick of stop()).
     */
    void sampleNow();

  private:
    void loop(uint64_t period_ms);

    std::atomic<bool> running_{false};
    std::atomic<uint64_t> samples_taken_{0};
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    bool stop_requested_ = false; ///< guarded by wake_mutex_
    std::thread thread_;          ///< last: it uses the members above
};

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_SNAPSHOT_HH
