/**
 * @file
 * Tests of the streaming telemetry subsystem: HDR histogram bucket
 * math and percentile accuracy, interval rate computation, the
 * OpenMetrics and dnasim.telemetry.v1 sink formats, progress scopes,
 * output-path preparation, and the sampler lifecycle, including the
 * RSS series it feeds the phase profiler.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/events.hh"
#include "obs/hdr_histogram.hh"
#include "obs/json.hh"
#include "obs/openmetrics.hh"
#include "obs/outfile.hh"
#include "obs/profile.hh"
#include "obs/progress.hh"
#include "obs/snapshot.hh"
#include "obs/stats.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace dnasim
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory under the test temp dir. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

TEST(HdrHistogram, ExactBelowSixtyFour)
{
    // Values below kSubBuckets land in unit-width buckets, so the
    // recorded value round-trips exactly.
    for (uint64_t v = 0; v < 64; ++v) {
        uint32_t i = obs::HdrHistogram::bucketIndex(v);
        EXPECT_EQ(obs::HdrHistogram::bucketLowerBound(i), v);
    }
}

TEST(HdrHistogram, BucketBoundsAreMonotonicAndTight)
{
    // Every bucket's lower bound maps back to the same bucket, and
    // the relative bucket width stays within 1/64 (~1.6%).
    uint32_t prev_index = 0;
    for (uint64_t v = 1; v < (1ull << 40); v = v * 3 / 2 + 1) {
        uint32_t i = obs::HdrHistogram::bucketIndex(v);
        uint64_t lo = obs::HdrHistogram::bucketLowerBound(i);
        EXPECT_LE(lo, v);
        EXPECT_EQ(obs::HdrHistogram::bucketIndex(lo), i);
        EXPECT_GE(i, prev_index);
        prev_index = i;
        if (v >= 64) {
            double rel = static_cast<double>(v - lo) /
                         static_cast<double>(v);
            EXPECT_LT(rel, 1.0 / 32.0) << "value " << v;
        }
    }
}

TEST(HdrHistogram, PercentilesWithinOneBucket)
{
    obs::HdrHistogram h;
    constexpr uint64_t kN = 100000;
    for (uint64_t v = 1; v <= kN; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), kN);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), kN);
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        double exact = q * static_cast<double>(kN);
        auto got = static_cast<double>(h.percentile(q));
        // The acceptance bar: within one log bucket (<= ~3%).
        EXPECT_NEAR(got, exact, exact * 0.03) << "q=" << q;
    }
    EXPECT_EQ(h.percentile(0.0), 1u);
    EXPECT_EQ(h.percentile(1.0), kN);
}

TEST(HdrHistogram, MergeMatchesCombinedRecording)
{
    obs::HdrHistogram a, b, combined;
    for (uint64_t v = 1; v <= 1000; ++v) {
        (v % 2 ? a : b).record(v * 17);
        combined.record(v * 17);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_EQ(a.percentile(q), combined.percentile(q));
}

TEST(HdrHistogram, WeightedRecordAndClear)
{
    obs::HdrHistogram h;
    h.record(10, 5);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 50.0);
    EXPECT_EQ(h.percentile(0.5), 10u);
    h.clear();
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
}

TEST(ObsTimer, SnapshotCarriesHdrPercentiles)
{
    obs::Registry reg;
    obs::Timer &t = reg.timer("op.time");
    for (uint64_t ns = 1; ns <= 1000; ++ns)
        t.record(ns * 1000);
    EXPECT_NEAR(static_cast<double>(t.percentileNs(0.5)), 500e3,
                500e3 * 0.03);
    obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.timers.size(), 1u);
    EXPECT_NEAR(static_cast<double>(snap.timers[0].p50_ns), 500e3,
                500e3 * 0.03);
    EXPECT_NEAR(static_cast<double>(snap.timers[0].p90_ns), 900e3,
                900e3 * 0.03);
    EXPECT_NEAR(static_cast<double>(snap.timers[0].p99_ns), 990e3,
                990e3 * 0.03);
    EXPECT_NEAR(static_cast<double>(snap.timers[0].p999_ns), 999e3,
                999e3 * 0.03);
}

TEST(TelemetryRates, DeltasRatesAndNewCounters)
{
    obs::Registry reg;
    obs::Counter &a = reg.counter("a");
    a.add(100);
    obs::Snapshot prev = reg.snapshot();
    a.add(50);
    reg.counter("b").add(7); // registered after the previous sample
    obs::Snapshot cur = reg.snapshot();

    auto rates = obs::computeRates(prev, cur, 500'000'000);
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_EQ(rates[0].name, "a");
    EXPECT_EQ(rates[0].value, 150u);
    EXPECT_EQ(rates[0].delta, 50u);
    EXPECT_DOUBLE_EQ(rates[0].per_sec, 100.0);
    EXPECT_EQ(rates[1].name, "b");
    EXPECT_EQ(rates[1].delta, 7u);

    // A reset between samples clamps to zero instead of wrapping.
    reg.reset();
    obs::Snapshot after_reset = reg.snapshot();
    auto clamped = obs::computeRates(cur, after_reset, 1'000'000'000);
    for (const auto &r : clamped)
        EXPECT_EQ(r.delta, 0u);
}

TEST(OpenMetrics, NamesAndEscapes)
{
    EXPECT_EQ(obs::openMetricsName("channel.errors.sub"),
              "dnasim_channel_errors_sub");
    EXPECT_EQ(obs::openMetricsName("a-b c"), "dnasim_a_b_c");
    EXPECT_EQ(obs::openMetricsEscape("a\"b\\c\nd"),
              "a\\\"b\\\\c\\nd");
}

TEST(OpenMetrics, RendersCompleteExposition)
{
    obs::Registry reg;
    reg.counter("channel.clusters", "clusters simulated").add(42);
    reg.gauge("pool.level").set(-3);
    reg.timer("cli.simulate.time").record(1'500'000);
    reg.distribution("channel.cluster_size").record(25);

    std::vector<obs::ProgressState> progress;
    progress.push_back(obs::ProgressState{"simulate", 10, 40, 0});

    std::string doc = obs::snapshotToOpenMetrics(
        reg.snapshot(), progress, 1ull << 20);

    EXPECT_NE(doc.find("# TYPE dnasim_channel_clusters counter\n"),
              std::string::npos);
    EXPECT_NE(doc.find("dnasim_channel_clusters_total 42\n"),
              std::string::npos);
    EXPECT_NE(doc.find("dnasim_pool_level -3\n"), std::string::npos);
    EXPECT_NE(
        doc.find("# TYPE dnasim_cli_simulate_time_seconds summary"),
        std::string::npos);
    EXPECT_NE(doc.find("dnasim_cli_simulate_time_seconds{quantile="
                       "\"0.5\"} "),
              std::string::npos);
    EXPECT_NE(doc.find("dnasim_cli_simulate_time_seconds_count 1\n"),
              std::string::npos);
    EXPECT_NE(doc.find("dnasim_channel_cluster_size{quantile=\"0.99"
                       "\"} 25\n"),
              std::string::npos);
    EXPECT_NE(doc.find("dnasim_progress_items_done{phase=\"simulate"
                       "\"} 10\n"),
              std::string::npos);
    EXPECT_NE(doc.find("dnasim_process_resident_memory_bytes "),
              std::string::npos);
    // The mandatory OpenMetrics terminator, exactly at the end.
    ASSERT_GE(doc.size(), 6u);
    EXPECT_EQ(doc.substr(doc.size() - 6), "# EOF\n");
    // No unescaped metric family may appear after EOF or twice.
    EXPECT_EQ(doc.find("# EOF\n"), doc.size() - 6);
}

TEST(Telemetry, SampleAndEventLinesAreValidJson)
{
    obs::Registry reg;
    reg.counter("c.reads").add(5);
    reg.timer("c.time").record(1000);

    obs::IntervalSample sample;
    sample.seq = 3;
    sample.mono_ns = 2'000'000'000;
    sample.interval_ns = 500'000'000;
    sample.final_sample = true;
    sample.snap = reg.snapshot();
    sample.rates = obs::computeRates(obs::Snapshot(), sample.snap,
                                     sample.interval_ns);
    sample.rss_bytes = 123456;
    sample.progress.push_back(
        obs::ProgressState{"cluster", 7, 10, 0});

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(
        obs::parseJson(obs::telemetrySampleLine(sample), doc, &error))
        << error;
    EXPECT_EQ(doc.find("schema")->asString(), "dnasim.telemetry.v1");
    EXPECT_EQ(doc.find("kind")->asString(), "sample");
    EXPECT_EQ(doc.find("seq")->asUint(), 3u);
    EXPECT_TRUE(doc.find("final")->asBool());
    ASSERT_TRUE(doc.find("counters")->isArray());
    const auto &counters = doc.find("counters")->array();
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0].find("name")->asString(), "c.reads");
    EXPECT_EQ(counters[0].find("delta")->asUint(), 5u);
    EXPECT_DOUBLE_EQ(counters[0].find("per_sec")->asDouble(), 10.0);
    const auto &progress = doc.find("progress")->array();
    ASSERT_EQ(progress.size(), 1u);
    EXPECT_EQ(progress[0].find("phase")->asString(), "cluster");

    obs::Event event;
    event.seq = 9;
    event.ts_ns = 42;
    event.kind = "phase_begin";
    event.name = "simulate";
    event.fields.emplace_back("total", "100");
    ASSERT_TRUE(
        obs::parseJson(obs::telemetryEventLine(event), doc, &error))
        << error;
    EXPECT_EQ(doc.find("kind")->asString(), "event");
    EXPECT_EQ(doc.find("event")->asString(), "phase_begin");
    EXPECT_EQ(doc.find("fields")->find("total")->asString(), "100");
}

TEST(Progress, ScopeRegistersAdvancesAndJournals)
{
    obs::EventJournal::global().clear();
    EXPECT_TRUE(obs::progressSnapshot().empty());
    {
        // A span without an item total is no progress phase.
        obs::Span plain("plain", "test");
        EXPECT_TRUE(obs::progressSnapshot().empty());
    }
    {
        obs::Span scope("simulate", "test", 100);
        scope.advance(30);
        scope.advance();
        auto states = obs::progressSnapshot();
        ASSERT_EQ(states.size(), 1u);
        EXPECT_EQ(states[0].name, "simulate");
        EXPECT_EQ(states[0].done, 31u);
        EXPECT_EQ(states[0].total, 100u);

        std::string line =
            obs::renderProgressLine(states, states[0].start_ns,
                                    2ull << 20);
        EXPECT_NE(line.find("simulate"), std::string::npos);
        EXPECT_NE(line.find("31"), std::string::npos);
    }
    EXPECT_TRUE(obs::progressSnapshot().empty());

    auto events = obs::EventJournal::global().eventsSince(0);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, "phase_begin");
    EXPECT_EQ(events[0].name, "simulate");
    EXPECT_EQ(events[1].kind, "phase_end");
    EXPECT_EQ(events[1].name, "simulate");
    // Sequence numbers are strictly increasing and drain-once.
    EXPECT_LT(events[0].seq, events[1].seq);
    EXPECT_TRUE(obs::EventJournal::global()
                    .eventsSince(events[1].seq)
                    .empty());
}

TEST(Outfile, CreatesMissingParentsAndDiagnosesBadPaths)
{
    fs::path dir = scratchDir("outfile_test");
    fs::path nested = dir / "a" / "b" / "stats.json";

    std::string error;
    EXPECT_TRUE(obs::prepareOutputPath(nested.string(), &error))
        << error;
    EXPECT_TRUE(fs::is_directory(dir / "a" / "b"));

    // A plain file where a parent directory is needed is diagnosed
    // with the offending path, not silently accepted.
    fs::path blocker = dir / "file";
    std::ofstream(blocker.string()) << "x";
    fs::path through = blocker / "sub" / "out.json";
    EXPECT_FALSE(obs::prepareOutputPath(through.string(), &error));
    EXPECT_NE(error.find(blocker.string()), std::string::npos);
}

TEST(Outfile, AtomicWritePublishesContentWithoutTmpResidue)
{
    fs::path dir = scratchDir("atomic_test");
    fs::path target = dir / "sub" / "metrics.prom";

    std::string error;
    ASSERT_TRUE(
        obs::writeFileAtomic(target.string(), "hello # EOF\n",
                             &error))
        << error;
    std::ifstream in(target.string());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "hello # EOF\n");
    // The temporary sibling must not survive the rename.
    size_t entries = 0;
    for ([[maybe_unused]] const auto &e :
         fs::directory_iterator(dir / "sub"))
        ++entries;
    EXPECT_EQ(entries, 1u);

    // Overwrite goes through the same path.
    ASSERT_TRUE(
        obs::writeFileAtomic(target.string(), "v2\n", &error));
    std::ifstream in2(target.string());
    std::string content2((std::istreambuf_iterator<char>(in2)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(content2, "v2\n");
}

/** Sink capturing every sample for assertions. */
class CaptureSink : public obs::TelemetrySink
{
  public:
    void
    onSample(const obs::IntervalSample &sample) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back(sample);
    }

    void
    close() override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }

    std::vector<obs::IntervalSample>
    samples() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return samples_;
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<obs::IntervalSample> samples_;
    bool closed_ = false;
};

TEST(TelemetrySampler, SamplesRatesAndEventsEndToEnd)
{
    obs::EventJournal::global().clear();
    obs::Registry reg;
    obs::Counter &work = reg.counter("work.items");

    obs::TelemetrySampler sampler;
    auto sink = std::make_shared<CaptureSink>();
    sampler.addSink(sink);
    // Long period: the ticks in this test come from sampleNow(), so
    // timing jitter cannot make it flaky.
    sampler.start(/*period_ms=*/60'000, &reg);
    EXPECT_TRUE(sampler.running());

    work.add(10);
    obs::emitEvent("warning", "low coverage");
    sampler.sampleNow();
    work.add(5);
    sampler.stop();
    EXPECT_FALSE(sampler.running());
    EXPECT_TRUE(sink->closed());

    auto samples = sink->samples();
    // One explicit tick plus the final one taken by stop().
    ASSERT_GE(samples.size(), 2u);
    EXPECT_GE(sampler.samplesTaken(), 2u);
    const auto &first = samples.front();
    EXPECT_EQ(first.seq, 1u);
    EXPECT_EQ(first.snap.counter("work.items"), 10u);
    ASSERT_EQ(first.rates.size(), 1u);
    EXPECT_EQ(first.rates[0].delta, 10u);
    ASSERT_EQ(first.events.size(), 1u);
    EXPECT_EQ(first.events[0].kind, "warning");

    const auto &last = samples.back();
    EXPECT_TRUE(last.final_sample);
    EXPECT_EQ(last.snap.counter("work.items"), 15u);
    // The warning was drained by the first sample; it must not be
    // delivered twice.
    for (size_t i = 1; i < samples.size(); ++i)
        EXPECT_TRUE(samples[i].events.empty());
}

TEST(TelemetrySampler, JsonlSinkWritesParseableStream)
{
    obs::EventJournal::global().clear();
    fs::path dir = scratchDir("jsonl_test");
    fs::path out = dir / "nested" / "telemetry.jsonl";

    obs::Registry reg;
    reg.counter("items").add(3);

    obs::TelemetrySampler sampler;
    auto sink =
        std::make_shared<obs::JsonlTelemetrySink>(out.string());
    sampler.addSink(sink);
    sampler.start(/*period_ms=*/60'000, &reg);
    obs::emitEvent("phase_begin", "demo");
    sampler.sampleNow();
    sampler.stop();
    EXPECT_TRUE(sink->ok());

    std::ifstream in(out.string());
    ASSERT_TRUE(in.is_open());
    std::string line;
    size_t lines = 0, samples = 0, events = 0;
    while (std::getline(in, line)) {
        ++lines;
        obs::JsonValue doc;
        std::string error;
        ASSERT_TRUE(obs::parseJson(line, doc, &error))
            << "line " << lines << ": " << error;
        EXPECT_EQ(doc.find("schema")->asString(),
                  "dnasim.telemetry.v1");
        const std::string &kind = doc.find("kind")->asString();
        if (kind == "sample")
            ++samples;
        else if (kind == "event")
            ++events;
    }
    EXPECT_GE(samples, 2u); // explicit tick + final
    EXPECT_GE(events, 1u);
}

TEST(TelemetrySampler, OpenMetricsSinkKeepsFileComplete)
{
    fs::path dir = scratchDir("om_test");
    fs::path out = dir / "metrics.prom";

    obs::Registry reg;
    reg.counter("done").add(1);

    obs::TelemetrySampler sampler;
    auto sink =
        std::make_shared<obs::OpenMetricsSink>(out.string());
    sampler.addSink(sink);
    sampler.start(/*period_ms=*/60'000, &reg);
    sampler.sampleNow();
    sampler.stop();
    EXPECT_TRUE(sink->ok());

    std::ifstream in(out.string());
    ASSERT_TRUE(in.is_open());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("dnasim_done_total 1\n"),
              std::string::npos);
    EXPECT_EQ(content.substr(content.size() - 6), "# EOF\n");
}

TEST(TelemetrySampler, FeedsProfilerRssWhileTracing)
{
    // The sampler is the process's only polling thread: with tracing
    // on and no sink attached, each tick still appends an RSS
    // reading to the trace, which the profiler attributes to the
    // phases open at that moment.
    obs::Trace &trace = obs::Trace::global();
    trace.enable();
    obs::TelemetrySampler sampler;
    sampler.start(/*period_ms=*/5);
    {
        obs::Span held("held_phase", "test");
        // Every tick counted from here on stamps its RSS after the
        // span opened; wait for three of them to finish.
        const uint64_t ticks_at_open = sampler.samplesTaken();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (sampler.samplesTaken() < ticks_at_open + 3 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_GE(sampler.samplesTaken(), ticks_at_open + 3);
    }
    sampler.stop();
    obs::Profile profile = obs::buildProfile(trace);
    trace.disable();
    trace.clear();

    EXPECT_GT(profile.rss_samples, 0u);
    EXPECT_GT(profile.root.rss_hwm_bytes, 0u);
    ASSERT_EQ(profile.root.children.size(), 1u);
    EXPECT_EQ(profile.root.children[0].name, "held_phase");
    EXPECT_GT(profile.root.children[0].rss_hwm_bytes, 0u);
}

} // anonymous namespace
} // namespace dnasim
