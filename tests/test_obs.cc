/**
 * @file
 * Tests of the observability layer: instrument semantics, the
 * thread-sharded counter merge, snapshot/JSON export, tracing, and
 * the pluggable logging sink.
 */

#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace dnasim
{
namespace
{

TEST(ObsCounter, StartsAtZeroAndAccumulates)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("events", "test events");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    EXPECT_EQ(c.name(), "events");
    EXPECT_EQ(c.desc(), "test events");
}

TEST(ObsCounter, LookupReturnsSameInstrument)
{
    obs::Registry reg;
    obs::Counter &a = reg.counter("dup");
    obs::Counter &b = reg.counter("dup");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);
}

TEST(ObsCounter, ThreadShardsMergeExactly)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("parallel");
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();
    // Every increment must survive both the live-shard merge and the
    // retired-shard accumulation of exited threads.
    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(reg.snapshot().counter("parallel"),
              kThreads * kPerThread);
}

TEST(ObsCounter, ManyCountersAcrossChunkBoundary)
{
    // More instruments than one shard chunk holds, so growth paths
    // run; late counters must not corrupt early slots.
    obs::Registry reg;
    std::vector<obs::Counter *> counters;
    for (int i = 0; i < 200; ++i)
        counters.push_back(
            &reg.counter("c" + std::to_string(i)));
    for (int i = 0; i < 200; ++i)
        counters[i]->add(static_cast<uint64_t>(i));
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(counters[i]->value(), static_cast<uint64_t>(i));
}

TEST(ObsGauge, MovesBothWays)
{
    obs::Registry reg;
    obs::Gauge &g = reg.gauge("level");
    g.set(10);
    g.add(-3);
    EXPECT_EQ(g.value(), 7);
}

TEST(ObsTimer, RecordsIntervals)
{
    obs::Registry reg;
    obs::Timer &t = reg.timer("t");
    t.record(100);
    t.record(300);
    EXPECT_EQ(t.count(), 2u);
    EXPECT_EQ(t.totalNs(), 400u);
    EXPECT_EQ(t.maxNs(), 300u);
}

TEST(ObsTimer, SpanRecordsOnce)
{
    // A Span feeds its Timer exactly once per scope, at destruction,
    // whether or not tracing is on.
    obs::Registry reg;
    obs::Timer &t = reg.timer("scoped");
    obs::Trace &trace = obs::Trace::global();
    trace.disable();
    {
        obs::Span s("untraced", "test", t);
    }
    EXPECT_EQ(t.count(), 1u);
    trace.enable();
    {
        obs::Span s("traced", "test", t);
    }
    trace.disable();
    EXPECT_EQ(t.count(), 2u);
    EXPECT_EQ(trace.numEvents(), 1u);
    trace.clear();
}

TEST(ObsDistribution, SummaryStatistics)
{
    obs::Registry reg;
    obs::Distribution &d = reg.distribution("sizes");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.percentile(0.5), 0u);
    for (uint64_t v = 1; v <= 100; ++v)
        d.record(v);
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.sum(), 5050.0);
    EXPECT_EQ(d.min(), 1u);
    EXPECT_EQ(d.max(), 100u);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    EXPECT_EQ(d.percentile(0.5), 50u);
    EXPECT_EQ(d.percentile(0.99), 99u);
}

TEST(ObsRegistry, KindCollisionPanics)
{
    obs::Registry reg;
    reg.counter("name");
    EXPECT_THROW(reg.timer("name"), FatalError);
}

TEST(ObsRegistry, ResetZeroesEverything)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("c");
    obs::Timer &t = reg.timer("t");
    obs::Distribution &d = reg.distribution("d");
    c.add(5);
    t.record(9);
    d.record(3);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(t.count(), 0u);
    EXPECT_EQ(t.totalNs(), 0u);
    EXPECT_EQ(d.count(), 0u);
    c.inc();
    EXPECT_EQ(c.value(), 1u);
}

TEST(ObsSnapshot, SortedAndComplete)
{
    obs::Registry reg;
    reg.counter("z.last").add(1);
    reg.counter("a.first").add(2);
    reg.gauge("g").set(-4);
    reg.timer("t").record(7);
    reg.distribution("d").record(11);

    obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].name, "a.first");
    EXPECT_EQ(snap.counters[1].name, "z.last");
    EXPECT_EQ(snap.counter("z.last"), 1u);
    EXPECT_EQ(snap.counter("missing"), 0u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].value, -4);
    ASSERT_EQ(snap.timers.size(), 1u);
    EXPECT_EQ(snap.timers[0].total_ns, 7u);
    ASSERT_EQ(snap.distributions.size(), 1u);
    EXPECT_EQ(snap.distributions[0].max, 11u);
}

TEST(ObsJson, WriterEscapesAndNests)
{
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.beginObject();
    w.value("s", "a\"b\\c\n");
    w.beginArray("xs");
    w.value("", uint64_t{1});
    w.value("", int64_t{-2});
    w.endArray();
    w.value("f", 1.5);
    w.value("b", true);
    w.endObject();
    EXPECT_EQ(os.str(), "{\"s\":\"a\\\"b\\\\c\\n\",\"xs\":[1,-2],"
                        "\"f\":1.5,\"b\":true}");
}

TEST(ObsJson, ParserDecodesEscapedUnicode)
{
    obs::JsonValue v;
    // 1-, 2- and 3-byte UTF-8 targets plus a surrogate-free BMP char.
    ASSERT_TRUE(obs::parseJson(
        "\"\\u0041\\u00e9\\u20ac\"", v, nullptr));
    EXPECT_EQ(v.asString(), "A\xc3\xa9\xe2\x82\xac");
    // Uppercase hex digits are equally valid.
    ASSERT_TRUE(obs::parseJson("\"\\u00E9\"", v, nullptr));
    EXPECT_EQ(v.asString(), "\xc3\xa9");
    // Truncated and non-hex escapes are malformed.
    std::string error;
    EXPECT_FALSE(obs::parseJson("\"\\u00\"", v, &error));
    EXPECT_FALSE(obs::parseJson("\"\\u00zz\"", v, &error));
}

TEST(ObsJson, ParserBoundsNestingDepth)
{
    // Moderately nested arrays parse; pathological nesting is
    // rejected instead of recursing toward a stack overflow.
    auto nested = [](size_t depth) {
        return std::string(depth, '[') + "1" +
               std::string(depth, ']');
    };
    obs::JsonValue v;
    EXPECT_TRUE(obs::parseJson(nested(32), v, nullptr));
    std::string error;
    EXPECT_FALSE(obs::parseJson(nested(100), v, &error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos);
}

TEST(ObsJson, ParserRejectsTrailingGarbage)
{
    obs::JsonValue v;
    std::string error;
    EXPECT_FALSE(obs::parseJson("{\"a\":1} x", v, &error));
    EXPECT_FALSE(obs::parseJson("[1,2]]", v, &error));
    EXPECT_FALSE(obs::parseJson("1 2", v, &error));
    // Trailing whitespace is fine.
    EXPECT_TRUE(obs::parseJson("{\"a\": 1}  \n", v, nullptr));
}

TEST(ObsJson, ParserRejectsNonJsonNumbers)
{
    // strtod accepts all of these; the JSON grammar does not.
    obs::JsonValue v;
    for (const char *bad :
         {"NaN", "nan", "Infinity", "-Infinity", "inf", "-inf",
          "0x10", "0123", "+1", ".5", "1.", "1e", "1e+", "-"}) {
        std::string error;
        EXPECT_FALSE(obs::parseJson(bad, v, &error))
            << "accepted non-JSON number: " << bad;
    }
    ASSERT_TRUE(obs::parseJson("-0.5e+2", v, nullptr));
    EXPECT_DOUBLE_EQ(v.asDouble(), -50.0);
    ASSERT_TRUE(obs::parseJson("0", v, nullptr));
    EXPECT_DOUBLE_EQ(v.asDouble(), 0.0);
    ASSERT_TRUE(obs::parseJson("1E3", v, nullptr));
    EXPECT_DOUBLE_EQ(v.asDouble(), 1000.0);
}

TEST(ObsReport, JsonRoundTripsSchemaAndValues)
{
    obs::Registry reg;
    reg.counter("channel.strands", "strands").add(123);
    reg.timer("channel.time").record(456);
    reg.distribution("sizes").record(5);
    obs::Snapshot snap = reg.snapshot();

    std::string json = obs::statsToJson(
        snap, {{"warn", "low coverage"}});
    EXPECT_NE(json.find("\"schema\": \"dnasim.stats.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"channel.strands\": 123"),
              std::string::npos);
    EXPECT_NE(json.find("\"total_ns\": 456"), std::string::npos);
    EXPECT_NE(json.find("low coverage"), std::string::npos);

    std::string text = obs::statsToText(snap);
    EXPECT_NE(text.find("channel.strands"), std::string::npos);
    EXPECT_NE(text.find("123"), std::string::npos);
}

TEST(ObsTrace, DisabledModeHasNoSideEffects)
{
    obs::Trace &trace = obs::Trace::global();
    trace.disable();
    trace.clear();
    {
        obs::Span span("noop", "test");
    }
    trace.recordRss(1 << 20);
    EXPECT_EQ(trace.numEvents(), 0u);
    EXPECT_TRUE(trace.rssSamples().empty());
    EXPECT_EQ(trace.nowNs(), 0u);
}

TEST(ObsTrace, RecordsSpansWhenEnabled)
{
    obs::Trace &trace = obs::Trace::global();
    trace.enable();
    {
        obs::Span outer("outer", "test");
        obs::Span inner("inner", "test");
    }
    EXPECT_EQ(trace.numEvents(), 2u);
    const std::vector<obs::TraceSpan> spans = trace.completeSpans();

    std::ostringstream os;
    trace.writeJson(os);
    std::string json = os.str();
    trace.disable();
    trace.clear();

    // Inner closes first; both carry the category and a duration
    // that nests inside the outer span.
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].cat, "test");
    EXPECT_GE(spans[0].ts_ns, spans[1].ts_ns);
    EXPECT_LE(spans[0].ts_ns + spans[0].dur_ns,
              spans[1].ts_ns + spans[1].dur_ns);

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObsTrace, DisableMidSpanDropsTheSpan)
{
    obs::Trace &trace = obs::Trace::global();
    trace.enable();
    {
        obs::Span span("dropped", "test");
        trace.disable();
    }
    EXPECT_EQ(trace.numEvents(), 0u);
    trace.clear();
}

TEST(ObsLogging, SinkReceivesWarnAndInform)
{
    std::vector<std::pair<LogLevel, std::string>> seen;
    LogSink old = setLogSink(
        [&seen](LogLevel level, const std::string &message) {
            seen.emplace_back(level, message);
        });
    inform("hello ", 42);
    warn("trouble");
    setLogSink(std::move(old));

    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, LogLevel::Info);
    EXPECT_EQ(seen[0].second, "hello 42");
    EXPECT_EQ(seen[1].first, LogLevel::Warn);
    EXPECT_EQ(seen[1].second, "trouble");
}

TEST(ObsLogging, WarnOnceDedupsAcrossThreads)
{
    std::vector<std::string> seen;
    std::mutex seen_mutex;
    LogSink old = setLogSink(
        [&](LogLevel, const std::string &message) {
            std::lock_guard<std::mutex> lock(seen_mutex);
            seen.push_back(message);
        });
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 100; ++i)
                warn_once("dedup me");
        });
    }
    for (auto &t : threads)
        t.join();
    setLogSink(std::move(old));
    EXPECT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], "dedup me");
}

} // anonymous namespace
} // namespace dnasim
