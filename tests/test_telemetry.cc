/**
 * @file
 * Tests of the live observability pieces: HDR histogram bucket math
 * and percentile accuracy, progress scopes, the output-file
 * primitive's directory and publish rules (more in test_base), and
 * the sampler lifecycle, including the RSS series it feeds the
 * phase profiler.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "base/output_file.hh"
#include "obs/hdr_histogram.hh"
#include "obs/profile.hh"
#include "obs/progress.hh"
#include "obs/snapshot.hh"
#include "obs/stats.hh"
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

TEST(Progress, ScopeRegistersAdvancesAndJournals)
{
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
}

TEST(Outfile, CreatesMissingParentsAndDiagnosesBadPaths)
{
    fs::path dir = scratchDir("outfile_test");
    fs::path nested = dir / "a" / "b" / "stats.json";

    std::string error;
    OutputFile out;
    EXPECT_TRUE(out.open(nested.string(), &error)) << error;
    out.abort();
    EXPECT_TRUE(fs::is_directory(dir / "a" / "b"));

    // A plain file where a parent directory is needed is diagnosed
    // with the offending path, not silently accepted.
    fs::path blocker = dir / "file";
    std::ofstream(blocker.string()) << "x";
    fs::path through = blocker / "sub" / "out.json";
    EXPECT_FALSE(out.open(through.string(), &error));
    EXPECT_NE(error.find(blocker.string()), std::string::npos);
}

TEST(Outfile, AtomicWritePublishesContentWithoutTmpResidue)
{
    fs::path dir = scratchDir("atomic_test");
    fs::path target = dir / "sub" / "metrics.prom";

    std::string error;
    ASSERT_TRUE(
        OutputFile::write(target.string(), "hello # EOF\n", &error))
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
    ASSERT_TRUE(OutputFile::write(target.string(), "v2\n", &error));
    std::ifstream in2(target.string());
    std::string content2((std::istreambuf_iterator<char>(in2)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(content2, "v2\n");
}

TEST(TelemetrySampler, SamplesRatesAndEventsEndToEnd)
{
    obs::TelemetrySampler sampler;
    // Long period: the ticks in this test come from sampleNow() and
    // stop(), so timing jitter cannot make it flaky.
    sampler.start(/*period_ms=*/60'000);
    EXPECT_TRUE(sampler.running());
    sampler.sampleNow();
    EXPECT_EQ(sampler.samplesTaken(), 1u);
    sampler.stop();
    EXPECT_FALSE(sampler.running());
    // One explicit tick plus the final one taken by stop().
    EXPECT_EQ(sampler.samplesTaken(), 2u);
    // stop() on a stopped sampler is a no-op and takes no tick.
    sampler.stop();
    EXPECT_EQ(sampler.samplesTaken(), 2u);
}

TEST(TelemetrySampler, FeedsProfilerRssWhileTracing)
{
    // The sampler is the process's only polling thread: with tracing
    // on, each tick appends an RSS reading to the trace, which the
    // profiler attributes to the phases open at that moment.
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
