#include "obs/snapshot.hh"

#include <chrono>

#include "obs/profile.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"

namespace dnasim
{
namespace obs
{

TelemetrySampler &
TelemetrySampler::global()
{
    static TelemetrySampler *s = new TelemetrySampler();
    return *s;
}

TelemetrySampler::~TelemetrySampler()
{
    stop();
}

void
TelemetrySampler::start(uint64_t period_ms)
{
    if (running_.exchange(true))
        return;
    samples_taken_.store(0);
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        stop_requested_ = false;
    }
    thread_ = std::thread([this, period_ms] { loop(period_ms); });
}

void
TelemetrySampler::stop()
{
    if (!running_.load())
        return;
    {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        stop_requested_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    sampleNow();
    clearProgressHeartbeat();
    running_.store(false);
}

void
TelemetrySampler::sampleNow()
{
    const uint64_t rss_bytes = currentRssBytes();
    Trace::global().recordRss(rss_bytes);
    paintProgressHeartbeat(rss_bytes);
    samples_taken_.fetch_add(1);
}

void
TelemetrySampler::loop(uint64_t period_ms)
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(wake_mutex_);
            wake_.wait_for(lock,
                           std::chrono::milliseconds(period_ms),
                           [this] { return stop_requested_; });
            if (stop_requested_)
                return;
        }
        sampleNow();
    }
}

} // namespace obs
} // namespace dnasim
