/**
 * @file
 * Tests of the hierarchical phase profiler (obs/profile.hh): nesting
 * recovery from span intervals, the sum-of-exclusive invariant,
 * same-name merging, multi-thread separation, RSS attribution and
 * the text/JSON renderers.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"

namespace dnasim
{
namespace
{

obs::TraceSpan
span(const char *name, uint64_t ts_ns, uint64_t dur_ns,
     uint32_t tid = 1, uint64_t cpu_ns = 0)
{
    obs::TraceSpan s;
    s.name = name;
    s.cat = "test";
    s.ts_ns = ts_ns;
    s.dur_ns = dur_ns;
    s.tid = tid;
    s.cpu_ns = cpu_ns;
    return s;
}

/** Sum of exclusive time over the whole tree. */
uint64_t
sumExclusive(const obs::ProfileNode &node)
{
    uint64_t sum = node.excl_ns;
    for (const auto &child : node.children)
        sum += sumExclusive(child);
    return sum;
}

TEST(Profile, EmptySpansGiveEmptyProfile)
{
    obs::Profile p = obs::buildProfile(std::vector<obs::TraceSpan>{});
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.root.incl_ns, 0u);
    // The renderers still work on an empty profile.
    EXPECT_FALSE(obs::profileToText(p).empty());
    EXPECT_FALSE(obs::profileToJson(p).empty());
}

TEST(Profile, RecoversNestingFromIntervals)
{
    // reconstruct [0,1000) contains align [100,400) and align
    // [500,800); align contains dp [150,250).
    std::vector<obs::TraceSpan> spans = {
        span("reconstruct", 0, 1000),
        span("align", 100, 300),
        span("dp", 150, 100),
        span("align", 500, 300),
    };
    obs::Profile p = obs::buildProfile(spans);
    ASSERT_EQ(p.root.children.size(), 1u);
    const obs::ProfileNode &rec = p.root.children[0];
    EXPECT_EQ(rec.name, "reconstruct");
    EXPECT_EQ(rec.count, 1u);
    EXPECT_EQ(rec.incl_ns, 1000u);
    // Both align instances merge into one node under reconstruct.
    ASSERT_EQ(rec.children.size(), 1u);
    const obs::ProfileNode &align = rec.children[0];
    EXPECT_EQ(align.name, "align");
    EXPECT_EQ(align.count, 2u);
    EXPECT_EQ(align.incl_ns, 600u);
    EXPECT_EQ(align.excl_ns, 500u); // 600 - dp's 100
    ASSERT_EQ(align.children.size(), 1u);
    EXPECT_EQ(align.children[0].name, "dp");
    EXPECT_EQ(rec.excl_ns, 400u); // 1000 - 600
}

TEST(Profile, ExclusiveSumsToRootInclusive)
{
    std::vector<obs::TraceSpan> spans = {
        span("a", 0, 1000),    span("b", 10, 300),
        span("c", 20, 100),    span("b", 400, 200),
        span("d", 1100, 500),  span("e", 1150, 350),
    };
    obs::Profile p = obs::buildProfile(spans);
    // With perfectly nested intervals the exclusive times partition
    // the root's inclusive time exactly; clamping can only lose
    // time, never invent it.
    EXPECT_EQ(p.root.incl_ns, 1500u);
    EXPECT_LE(sumExclusive(p.root), p.root.incl_ns);
    EXPECT_EQ(sumExclusive(p.root), p.root.incl_ns);
}

TEST(Profile, ClampsJitteredChildren)
{
    // A child whose interval slightly overruns its parent (clock
    // jitter across cores) must not produce underflowed exclusive
    // time.
    std::vector<obs::TraceSpan> spans = {
        span("parent", 0, 100),
        span("child", 10, 100), // ends at 110 > parent's 100
    };
    obs::Profile p = obs::buildProfile(spans);
    const obs::ProfileNode &parent = p.root.children[0];
    EXPECT_EQ(parent.excl_ns, 0u);
    EXPECT_LE(sumExclusive(p.root), p.root.incl_ns);
}

TEST(Profile, ThreadsNestIndependently)
{
    // Identical timestamps on different threads must not nest into
    // each other: two top-level phases, root sums both.
    std::vector<obs::TraceSpan> spans = {
        span("worker", 0, 1000, 1),
        span("worker", 0, 1000, 2),
    };
    obs::Profile p = obs::buildProfile(spans);
    ASSERT_EQ(p.root.children.size(), 1u);
    EXPECT_EQ(p.root.children[0].count, 2u);
    EXPECT_EQ(p.root.incl_ns, 2000u);
    EXPECT_EQ(p.root.count, 2u);
}

TEST(Profile, CpuTimeAggregates)
{
    std::vector<obs::TraceSpan> spans = {
        span("a", 0, 1000, 1, 900),
        span("b", 100, 500, 1, 450),
    };
    obs::Profile p = obs::buildProfile(spans);
    EXPECT_EQ(p.root.cpu_ns, 900u); // top-level only
    EXPECT_EQ(p.root.children[0].cpu_ns, 900u);
    EXPECT_EQ(p.root.children[0].children[0].cpu_ns, 450u);
}

TEST(Profile, HotspotsRankByExclusiveTime)
{
    std::vector<obs::TraceSpan> spans = {
        span("outer", 0, 1000),
        span("inner", 100, 800), // excl 800, outer excl 200
    };
    obs::Profile p = obs::buildProfile(spans);
    ASSERT_GE(p.hotspots.size(), 2u);
    EXPECT_EQ(p.hotspots[0].path, "outer/inner");
    EXPECT_EQ(p.hotspots[0].excl_ns, 800u);
    EXPECT_EQ(p.hotspots[1].path, "outer");
    EXPECT_EQ(p.hotspots[1].excl_ns, 200u);

    // top_n bounds the ranking.
    obs::Profile top1 = obs::buildProfile(spans, {}, 1);
    EXPECT_EQ(top1.hotspots.size(), 1u);
}

TEST(Profile, AttributesRssSamplesToActivePhases)
{
    std::vector<obs::TraceSpan> spans = {
        span("load", 0, 1000),
        span("solve", 1000, 1000),
    };
    std::vector<obs::RssSample> samples = {
        {500, 100 << 20},  // during load
        {1500, 300 << 20}, // during solve
    };
    obs::Profile p = obs::buildProfile(spans, samples);
    EXPECT_EQ(p.rss_samples, 2u);
    EXPECT_EQ(p.root.rss_hwm_bytes, 300u << 20);
    ASSERT_EQ(p.root.children.size(), 2u);
    // Children sort by inclusive time (equal here); find by name.
    for (const auto &child : p.root.children) {
        if (child.name == "load")
            EXPECT_EQ(child.rss_hwm_bytes, 100u << 20);
        else
            EXPECT_EQ(child.rss_hwm_bytes, 300u << 20);
    }
}

TEST(Profile, TextAndJsonRenderersAgree)
{
    std::vector<obs::TraceSpan> spans = {
        span("phase_a", 0, 2000),
        span("phase_b", 100, 700),
    };
    obs::Profile p = obs::buildProfile(spans);

    std::string text = obs::profileToText(p);
    EXPECT_NE(text.find("phase_a"), std::string::npos);
    EXPECT_NE(text.find("phase_b"), std::string::npos);
    EXPECT_NE(text.find("hotspots"), std::string::npos);

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(obs::profileToJson(p), doc, &error))
        << error;
    EXPECT_EQ(doc.find("total_ns")->asUint(), 2000u);
    const obs::JsonValue *tree = doc.find("tree");
    ASSERT_NE(tree, nullptr);
    EXPECT_EQ(tree->find("name")->asString(), "total");
    ASSERT_EQ(tree->find("children")->array().size(), 1u);
    EXPECT_EQ(tree->find("children")->array()[0]
                  .find("name")->asString(),
              "phase_a");
}

TEST(Profile, BuildsFromLiveTrace)
{
    obs::Trace &trace = obs::Trace::global();
    trace.enable();
    {
        obs::Span outer("outer_phase", "test");
        obs::Span inner("inner_phase", "test");
    }
    obs::Profile p = obs::buildProfile(trace);
    trace.disable();
    trace.clear();
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.root.children[0].name, "outer_phase");
    // The spans ran for real: exclusive time stays within the root.
    EXPECT_LE(sumExclusive(p.root), p.root.incl_ns);
}

} // namespace
} // namespace dnasim
