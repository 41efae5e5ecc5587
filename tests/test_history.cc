/**
 * @file
 * Tests of the bench report loader and diff (obs/history.hh): the
 * dnasim.bench.v1 parser, directory loading, and the noise-aware
 * diff comparator's edge cases — missing-benchmark pairs,
 * zero-variance baselines, single-repeat runs and NaN-guarded
 * fields — and a mutation corpus over a written report.
 */

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "obs/history.hh"
#include "obs/json.hh"

namespace dnasim
{
namespace
{

/** Minimal dnasim.bench.v1 document with one row. */
std::string
reportJson(const std::string &name, double real_ns,
           const std::string &extra_top = "")
{
    return "{\"schema\":\"dnasim.bench.v1\",\"name\":\"" + name +
           "\",\"git_rev\":\"abc1234\",\"seed\":42,"
           "\"wall_time_s\":1.5,\"peak_rss_bytes\":1048576," +
           extra_top +
           "\"config\":{\"clusters\":\"100\",\"threads\":\"2\"},"
           "\"benchmarks\":[{\"name\":\"BM_Main\",\"real_time_ns\":" +
           std::to_string(real_ns) +
           ",\"cpu_time_ns\":100.0,\"iterations\":1000}]}";
}

/** One run whose single row "BM_Main" took @p ns. */
obs::BenchRun
mainRowRun(const std::string &name, double ns)
{
    obs::BenchRun run;
    run.name = name;
    obs::BenchRunRow row;
    row.name = "BM_Main";
    row.real_time_ns = ns;
    run.rows.push_back(row);
    return run;
}

TEST(History, ParsesBenchReport)
{
    obs::BenchRun run;
    std::string error;
    ASSERT_TRUE(
        obs::parseBenchReport(reportJson("perf_channel", 1234.5),
                              run, &error))
        << error;
    EXPECT_EQ(run.name, "perf_channel");
    ASSERT_EQ(run.rows.size(), 1u);
    EXPECT_EQ(run.rows[0].name, "BM_Main");
    EXPECT_DOUBLE_EQ(run.rows[0].real_time_ns, 1234.5);
    EXPECT_EQ(run.rows[0].iterations, 1000u);
}

TEST(History, RejectsWrongSchemaAndGarbage)
{
    obs::BenchRun run;
    EXPECT_FALSE(obs::parseBenchReport("{\"schema\":\"other\"}", run));
    EXPECT_FALSE(obs::parseBenchReport("not json", run));
    EXPECT_FALSE(obs::parseBenchReport("[1,2]", run));
    // A valid schema but no name cannot be grouped into a row.
    EXPECT_FALSE(obs::parseBenchReport(
        "{\"schema\":\"dnasim.bench.v1\"}", run));
}

TEST(History, NanGuardedThroughputFields)
{
    // null values (the writer's representation of NaN), in the
    // throughput block or in a row, must not poison the run.
    obs::BenchRun run;
    ASSERT_TRUE(obs::parseBenchReport(
        reportJson("perf_channel", 10.0,
                   "\"throughput\":{\"strands_per_s\":null,"
                   "\"bases_per_s\":12.5},"),
        run));
    ASSERT_EQ(run.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(run.rows[0].real_time_ns, 10.0);

    ASSERT_TRUE(obs::parseBenchReport(
        "{\"schema\":\"dnasim.bench.v1\",\"name\":\"perf_x\","
        "\"benchmarks\":[{\"name\":\"BM_Nan\",\"real_time_ns\":null,"
        "\"cpu_time_ns\":null}]}",
        run));
    ASSERT_EQ(run.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(run.rows[0].real_time_ns, 0.0);
    EXPECT_DOUBLE_EQ(run.rows[0].cpu_time_ns, 0.0);
}

TEST(HistoryDiff, FlagsRegressionBeyondThreshold)
{
    std::vector<obs::BenchRun> a, b;
    for (double ns : {100.0, 101.0, 99.0})
        a.push_back(mainRowRun("perf_channel", ns));
    for (double ns : {120.0, 121.0, 119.0})
        b.push_back(mainRowRun("perf_channel", ns));

    obs::DiffReport report = obs::diffBenchRuns(a, b);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_EQ(report.rows[0].verdict, obs::Verdict::kSlower);
    EXPECT_NEAR(report.rows[0].rel_delta, 0.20, 0.01);
    EXPECT_EQ(report.regressions(), 1u);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(obs::diffToText(report).find("REGRESSED"),
              std::string::npos);
}

TEST(HistoryDiff, WithinNoiseStaysOk)
{
    // 2% swing with a 5% threshold: inside the floor.
    std::vector<obs::BenchRun> a = {mainRowRun("perf_channel", 100.0),
                                    mainRowRun("perf_channel", 102.0)};
    std::vector<obs::BenchRun> b = {mainRowRun("perf_channel", 103.0),
                                    mainRowRun("perf_channel", 101.0)};
    obs::DiffReport report = obs::diffBenchRuns(a, b);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_EQ(report.rows[0].verdict, obs::Verdict::kOk);
    EXPECT_TRUE(report.ok());
}

TEST(HistoryDiff, NoisyBaselineRaisesTheBar)
{
    // 10% mean delta, but the baseline swings +-20%: the pooled
    // stddev must absorb it.
    std::vector<obs::BenchRun> a, b;
    for (double ns : {80.0, 100.0, 120.0})
        a.push_back(mainRowRun("perf_channel", ns));
    for (double ns : {90.0, 110.0, 130.0})
        b.push_back(mainRowRun("perf_channel", ns));
    obs::DiffReport report = obs::diffBenchRuns(a, b);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_GT(report.rows[0].noise_rel, 0.10);
    EXPECT_EQ(report.rows[0].verdict, obs::Verdict::kOk);
}

TEST(HistoryDiff, ZeroVarianceBaselineUsesThresholdFloor)
{
    // Identical repeats on both sides: pooled stddev is 0, so the
    // fixed threshold is the only floor; a 6% slowdown trips it and
    // a 4% one does not.
    std::vector<obs::BenchRun> a = {mainRowRun("perf_channel", 100.0),
                                    mainRowRun("perf_channel", 100.0)};
    std::vector<obs::BenchRun> slow = {
        mainRowRun("perf_channel", 106.0),
        mainRowRun("perf_channel", 106.0)};
    std::vector<obs::BenchRun> near = {
        mainRowRun("perf_channel", 104.0),
        mainRowRun("perf_channel", 104.0)};

    EXPECT_EQ(obs::diffBenchRuns(a, slow).rows[0].verdict,
              obs::Verdict::kSlower);
    EXPECT_EQ(obs::diffBenchRuns(a, near).rows[0].verdict,
              obs::Verdict::kOk);
}

TEST(HistoryDiff, SingleRepeatRunsCompare)
{
    // n=1 on both sides: no variance evidence, threshold-only.
    std::vector<obs::BenchRun> a = {mainRowRun("perf_channel", 100.0)};
    std::vector<obs::BenchRun> b = {mainRowRun("perf_channel", 111.0)};
    obs::DiffReport report = obs::diffBenchRuns(a, b);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_EQ(report.rows[0].a.n, 1u);
    EXPECT_DOUBLE_EQ(report.rows[0].a.stddev_ns, 0.0);
    EXPECT_EQ(report.rows[0].verdict, obs::Verdict::kSlower);
}

TEST(HistoryDiff, ImprovementIsNotARegression)
{
    std::vector<obs::BenchRun> a = {mainRowRun("perf_channel", 100.0)};
    std::vector<obs::BenchRun> b = {mainRowRun("perf_channel", 80.0)};
    obs::DiffReport report = obs::diffBenchRuns(a, b);
    EXPECT_EQ(report.rows[0].verdict, obs::Verdict::kFaster);
    EXPECT_EQ(report.improvements(), 1u);
    EXPECT_TRUE(report.ok());
}

TEST(HistoryDiff, MissingBenchmarkPairsAreAdvisory)
{
    std::vector<obs::BenchRun> a = {mainRowRun("perf_old", 100.0)};
    std::vector<obs::BenchRun> b = {mainRowRun("perf_new", 100.0)};
    obs::DiffReport report = obs::diffBenchRuns(a, b);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_EQ(report.rows[1].verdict, obs::Verdict::kOnlyInA);
    EXPECT_EQ(report.rows[0].verdict, obs::Verdict::kOnlyInB);
    // Rows unique to one side never fail the gate by themselves.
    EXPECT_TRUE(report.ok());
}

TEST(HistoryDiff, NonFiniteSamplesAreDropped)
{
    // A NaN-ish (serialized null -> 0) or negative sample must not
    // enter the statistics; all-dropped rows become unmatched.
    std::vector<obs::BenchRun> a = {mainRowRun("perf_channel", 0.0)};
    std::vector<obs::BenchRun> b = {mainRowRun("perf_channel", 100.0)};
    obs::DiffReport report = obs::diffBenchRuns(a, b);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_EQ(report.rows[0].verdict, obs::Verdict::kOnlyInB);
}

TEST(HistoryDiff, JsonReportParses)
{
    std::vector<obs::BenchRun> a = {mainRowRun("perf_channel", 100.0)};
    std::vector<obs::BenchRun> b = {mainRowRun("perf_channel", 120.0)};
    obs::DiffReport report = obs::diffBenchRuns(a, b);

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(obs::diffToJson(report), doc,
                               &error))
        << error;
    EXPECT_EQ(doc.find("schema")->asString(), "dnasim.benchdiff.v1");
    EXPECT_EQ(doc.find("regressions")->asUint(), 1u);
    EXPECT_FALSE(doc.find("ok")->asBool(true));
    ASSERT_EQ(doc.find("rows")->array().size(), 1u);
    EXPECT_EQ(doc.find("rows")->array()[0].find("verdict")->asString(),
              "REGRESSED");
}

/** mainRowRun() whose row also reports an RSS high water. */
obs::BenchRun
rssRowRun(double ns, uint64_t rss_bytes)
{
    obs::BenchRun run = mainRowRun("perf_cluster", ns);
    run.rows[0].rss_high_water_bytes = rss_bytes;
    return run;
}

TEST(HistoryDiff, MemoryGrowthBeyondThresholdIsAdvisory)
{
    // 30% RSS growth is past kDiffMemThreshold (25%): flagged and
    // counted, but memory never fails the diff.
    std::vector<obs::BenchRun> a = {rssRowRun(100.0, 100 << 20)};
    std::vector<obs::BenchRun> b = {rssRowRun(100.0, 130 << 20)};
    obs::DiffReport report = obs::diffBenchRuns(a, b);
    ASSERT_EQ(report.rows.size(), 1u);
    const obs::RowDelta &row = report.rows[0];
    EXPECT_TRUE(row.mem_measured);
    EXPECT_NEAR(row.mem_rel_delta, 0.30, 1e-9);
    EXPECT_TRUE(row.mem_regressed);
    EXPECT_EQ(row.verdict, obs::Verdict::kOk);
    EXPECT_EQ(report.memRegressions(), 1u);
    EXPECT_TRUE(report.ok());
    EXPECT_NE(obs::diffToText(report).find("MEM-REGRESSED"),
              std::string::npos);
}

TEST(HistoryDiff, MemoryGrowthWithinThresholdIsNotFlagged)
{
    std::vector<obs::BenchRun> a = {rssRowRun(100.0, 100 << 20)};
    std::vector<obs::BenchRun> b = {rssRowRun(100.0, 120 << 20)};
    obs::DiffReport report = obs::diffBenchRuns(a, b);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_TRUE(report.rows[0].mem_measured);
    EXPECT_NEAR(report.rows[0].mem_rel_delta, 0.20, 1e-9);
    EXPECT_FALSE(report.rows[0].mem_regressed);
    EXPECT_EQ(report.memRegressions(), 0u);
}

TEST(HistoryDiff, MemoryOnOneSideOnlyIsNotMeasured)
{
    // A baseline that predates the RSS field against a candidate
    // that reports it: no delta, no flag, no JSON memory fields.
    std::vector<obs::BenchRun> a = {mainRowRun("perf_cluster", 100.0)};
    std::vector<obs::BenchRun> b = {rssRowRun(100.0, 500 << 20)};
    obs::DiffReport report = obs::diffBenchRuns(a, b);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_FALSE(report.rows[0].mem_measured);
    EXPECT_FALSE(report.rows[0].mem_regressed);
    EXPECT_EQ(report.memRegressions(), 0u);
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(obs::diffToJson(report), doc));
    EXPECT_EQ(doc.find("rows")->array()[0].find("mem_a_bytes"),
              nullptr);
}

TEST(HistoryDiff, LoadBenchInputFromDirectory)
{
    namespace fs = std::filesystem;
    // Repeats live in subdirectories (r1/, r2/), as the CI gate lays
    // them out; the recursive scan must fold both into samples.
    const std::string dir =
        ::testing::TempDir() + "dnasim_history_dir";
    fs::create_directories(dir + "/r1");
    fs::create_directories(dir + "/r2");
    {
        std::ofstream(dir + "/r1/BENCH_perf_channel.json")
            << reportJson("perf_channel", 100.0);
        std::ofstream(dir + "/r2/BENCH_perf_channel.json")
            << reportJson("perf_channel", 102.0);
        std::ofstream(dir + "/r2/NOT_A_BENCH.json") << "{}";
        std::ofstream(dir + "/r2/BENCH_broken.json") << "not json";
    }
    std::vector<std::string> errors;
    auto runs = obs::loadBenchInput(dir, &errors);
    EXPECT_EQ(runs.size(), 2u);
    EXPECT_EQ(errors.size(), 1u); // BENCH_broken.json
    fs::remove_all(dir);
}

// Every mutant of a written BENCH_*.json must parse or be refused
// with a message; it must never abort or throw. The ASan/UBSan lane
// runs this through ctest.
TEST(BenchReportFuzz, MutantsParseOrAreRefusedWithAMessage)
{
    std::ifstream in(std::string(DNASIM_SOURCE_DIR) +
                     "/bench/baselines/r1/BENCH_perf_obs.json");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    obs::BenchRun run;
    std::string error;
    ASSERT_TRUE(obs::parseBenchReport(text, run, &error)) << error;
    ASSERT_FALSE(run.rows.empty());

    static const char kJsonBytes[] = "{}[]\":,\\0123456789eE.-+ \n\t";
    static const char *const kValues[] = {
        "-1", "0.5", "1e300", "-1e300", "18446744073709551616",
        "null", "true", "[]", "{}", "\"\"", "\"\\u0000\"",
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    };
    Rng rng(0xbe7c);
    auto anyByte = [&rng] {
        return rng.bernoulli(0.5)
                   ? kJsonBytes[rng.index(sizeof(kJsonBytes) - 1)]
                   : static_cast<char>(rng.index(256));
    };
    size_t parsed = 0, refused = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::string m = text;
        switch (trial % 5) {
          case 0: // byte substitutions
            for (size_t n = 1 + rng.index(3); n-- > 0;)
                m[rng.index(m.size())] = anyByte();
            break;
          case 1: // byte insertions and deletions
            for (size_t n = 1 + rng.index(3); n-- > 0;) {
                const auto at = static_cast<ptrdiff_t>(rng.index(m.size()));
                if (rng.bernoulli(0.5))
                    m.insert(m.begin() + at, anyByte());
                else
                    m.erase(m.begin() + at);
            }
            break;
          case 2: // truncation
            m.resize(rng.index(m.size() + 1));
            break;
          case 3: { // a value replaced by one of another kind or range
            const size_t colon = m.find(':', rng.index(m.size()));
            if (colon == std::string::npos)
                break;
            const size_t end = m.find_first_of(",}\n", colon);
            m.replace(colon + 1,
                      (end == std::string::npos ? m.size() : end) -
                          colon - 1,
                      kValues[rng.index(std::size(kValues))]);
            break;
          }
          default: { // a duplicated line (a repeated key or row)
            const size_t at = m.find('\n', rng.index(m.size()));
            if (at == std::string::npos)
                break;
            const size_t next = m.find('\n', at + 1);
            if (next != std::string::npos)
                m.insert(at + 1, m.substr(at + 1, next - at));
          }
        }
        error.clear();
        if (obs::parseBenchReport(m, run, &error)) {
            ++parsed;
        } else {
            ++refused;
            EXPECT_FALSE(error.empty()) << "trial " << trial;
        }
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(refused, 0u);
}

} // namespace
} // namespace dnasim
