#include "obs/snapshot.hh"

#include <chrono>

#include "obs/profile.hh"
#include "obs/trace.hh"

namespace dnasim
{
namespace obs
{

std::vector<CounterRate>
computeRates(const Snapshot &prev, const Snapshot &cur,
             uint64_t interval_ns)
{
    std::vector<CounterRate> rates;
    rates.reserve(cur.counters.size());
    // Both snapshots are name-sorted (std::map iteration); walk them
    // in lockstep instead of a quadratic name lookup.
    size_t pi = 0;
    for (const auto &c : cur.counters) {
        while (pi < prev.counters.size() &&
               prev.counters[pi].name < c.name)
            ++pi;
        uint64_t before = 0;
        if (pi < prev.counters.size() &&
            prev.counters[pi].name == c.name)
            before = prev.counters[pi].value;
        CounterRate r;
        r.name = c.name;
        r.value = c.value;
        // A reset between samples can move a counter backwards;
        // clamp instead of wrapping to a huge delta.
        r.delta = c.value >= before ? c.value - before : 0;
        r.per_sec = interval_ns > 0
                        ? static_cast<double>(r.delta) * 1e9 /
                              static_cast<double>(interval_ns)
                        : 0.0;
        rates.push_back(std::move(r));
    }
    return rates;
}

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
TelemetrySampler::addSink(std::shared_ptr<TelemetrySink> sink)
{
    std::lock_guard<std::mutex> lock(sample_mutex_);
    sinks_.push_back(std::move(sink));
}

void
TelemetrySampler::clearSinks()
{
    std::lock_guard<std::mutex> lock(sample_mutex_);
    sinks_.clear();
}

void
TelemetrySampler::start(uint64_t period_ms, const Registry *registry)
{
    if (running_.exchange(true))
        return;
    {
        std::lock_guard<std::mutex> lock(sample_mutex_);
        registry_ = registry;
        prev_snap_ = Snapshot();
        prev_ns_ = monotonicNowNs();
        seq_ = 0;
        last_event_seq_ = EventJournal::global().lastSeq();
        samples_taken_.store(0);
    }
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
    sampleNow(/*final_sample=*/true);
    clearProgressHeartbeat();
    std::vector<std::shared_ptr<TelemetrySink>> sinks;
    {
        std::lock_guard<std::mutex> lock(sample_mutex_);
        sinks = sinks_;
    }
    for (auto &sink : sinks)
        sink->close();
    running_.store(false);
}

void
TelemetrySampler::sampleNow(bool final_sample)
{
    IntervalSample sample;
    std::vector<std::shared_ptr<TelemetrySink>> sinks;
    {
        std::lock_guard<std::mutex> lock(sample_mutex_);
        const Registry &reg =
            registry_ ? *registry_ : Registry::global();
        sample.seq = ++seq_;
        sample.mono_ns = monotonicNowNs();
        sample.interval_ns =
            sample.mono_ns > prev_ns_ ? sample.mono_ns - prev_ns_ : 0;
        sample.final_sample = final_sample;
        sample.snap = reg.snapshot();
        sample.rates =
            computeRates(prev_snap_, sample.snap, sample.interval_ns);
        sample.rss_bytes = currentRssBytes();
        sample.progress = progressSnapshot();
        sample.events =
            EventJournal::global().eventsSince(last_event_seq_);
        if (!sample.events.empty())
            last_event_seq_ = sample.events.back().seq;
        prev_snap_ = sample.snap;
        prev_ns_ = sample.mono_ns;
        sinks = sinks_;
    }
    samples_taken_.fetch_add(1);

    Trace::global().recordRss(sample.rss_bytes);
    paintProgressHeartbeat(sample.rss_bytes);
    for (auto &sink : sinks)
        sink->onSample(sample);
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
        sampleNow(/*final_sample=*/false);
    }
}

} // namespace obs
} // namespace dnasim
