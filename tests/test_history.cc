/**
 * @file
 * Tests of the bench trajectory ledger (obs/history.hh): the
 * dnasim.bench.v1 parser, the JSONL ledger round-trip and dedup, and
 * the noise-aware diff comparator's edge cases — missing-benchmark
 * pairs, zero-variance baselines, single-repeat runs and NaN-guarded
 * throughput fields.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

obs::BenchRun
makeRun(const std::string &name, std::vector<double> row_ns,
        double wall_s = 1.0)
{
    obs::BenchRun run;
    run.name = name;
    run.git_rev = "abc1234";
    run.seed = 42;
    run.threads = 2;
    run.wall_time_s = wall_s;
    run.config = {{"clusters", "100"}, {"threads", "2"}};
    int i = 0;
    for (double ns : row_ns) {
        obs::BenchRunRow row;
        row.name = "BM_Row" + std::to_string(i++);
        row.real_time_ns = ns;
        row.iterations = 100;
        run.rows.push_back(row);
    }
    return run;
}

/** One run whose single row "BM_Main" took @p ns. */
obs::BenchRun
mainRowRun(const std::string &name, double ns, uint64_t seed = 42)
{
    obs::BenchRun run;
    run.name = name;
    run.git_rev = "abc1234";
    run.seed = seed;
    run.threads = 1;
    obs::BenchRunRow row;
    row.name = "BM_Main";
    row.real_time_ns = ns;
    run.rows.push_back(row);
    return run;
}

class TempFile
{
  public:
    explicit TempFile(const std::string &suffix)
        : path_(::testing::TempDir() + "dnasim_history_" +
                std::to_string(counter_++) + suffix)
    {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    static int counter_;
    std::string path_;
};

int TempFile::counter_ = 0;

TEST(History, ParsesBenchReport)
{
    obs::BenchRun run;
    std::string error;
    ASSERT_TRUE(
        obs::parseBenchReport(reportJson("perf_channel", 1234.5),
                              run, &error))
        << error;
    EXPECT_EQ(run.name, "perf_channel");
    EXPECT_EQ(run.git_rev, "abc1234");
    EXPECT_EQ(run.seed, 42u);
    EXPECT_EQ(run.threads, 2u); // from config.threads
    EXPECT_DOUBLE_EQ(run.wall_time_s, 1.5);
    EXPECT_EQ(run.peak_rss_bytes, 1048576u);
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
    // A valid schema but no name is unusable for keying.
    EXPECT_FALSE(obs::parseBenchReport(
        "{\"schema\":\"dnasim.bench.v1\"}", run));
}

TEST(History, NanGuardedThroughputFields)
{
    // null throughput values (the writer's representation of NaN)
    // must not poison the run.
    obs::BenchRun run;
    ASSERT_TRUE(obs::parseBenchReport(
        reportJson("perf_channel", 10.0,
                   "\"throughput\":{\"strands_per_s\":null,"
                   "\"bases_per_s\":12.5},"),
        run));
    EXPECT_DOUBLE_EQ(run.strands_per_s, 0.0);
    EXPECT_DOUBLE_EQ(run.bases_per_s, 12.5);
}

TEST(History, ConfigHashIgnoresThreadsAndOrder)
{
    obs::BenchRun a = makeRun("perf_channel", {10.0});
    obs::BenchRun b = a;
    b.config = {{"threads", "8"}, {"clusters", "100"}};
    b.threads = 8;
    // Same config modulo threads/order: same hash, different key.
    EXPECT_EQ(a.configHash(), b.configHash());
    EXPECT_NE(a.key(), b.key());

    obs::BenchRun c = a;
    c.config.emplace_back("coverage", "20");
    EXPECT_NE(a.configHash(), c.configHash());
}

TEST(History, SchemaRoundTrip)
{
    obs::BenchRun run = makeRun("perf_align", {1.5, 2.5}, 3.25);
    run.peak_rss_bytes = 7654321;
    run.rss_source = "proc_status";
    run.strands_per_s = 1e6;
    run.bases_per_s = 1.1e8;

    obs::BenchRun back;
    std::string error;
    ASSERT_TRUE(obs::parseBenchReport(obs::benchRunToJsonLine(run),
                                      back, &error))
        << error;
    EXPECT_EQ(back.name, run.name);
    EXPECT_EQ(back.git_rev, run.git_rev);
    EXPECT_EQ(back.seed, run.seed);
    EXPECT_EQ(back.threads, run.threads);
    EXPECT_DOUBLE_EQ(back.wall_time_s, run.wall_time_s);
    EXPECT_EQ(back.peak_rss_bytes, run.peak_rss_bytes);
    EXPECT_EQ(back.rss_source, run.rss_source);
    EXPECT_DOUBLE_EQ(back.strands_per_s, run.strands_per_s);
    EXPECT_DOUBLE_EQ(back.bases_per_s, run.bases_per_s);
    EXPECT_EQ(back.key(), run.key());
    ASSERT_EQ(back.rows.size(), run.rows.size());
    for (size_t i = 0; i < run.rows.size(); ++i) {
        EXPECT_EQ(back.rows[i].name, run.rows[i].name);
        EXPECT_DOUBLE_EQ(back.rows[i].real_time_ns,
                         run.rows[i].real_time_ns);
    }
}

TEST(History, RoundTripKeepsThreadsFromParallelBlock)
{
    // threads can come from the "parallel" section rather than the
    // config; the ledger line must still round-trip it.
    obs::BenchRun run;
    std::string error;
    ASSERT_TRUE(obs::parseBenchReport(
        "{\"schema\":\"dnasim.bench.v1\",\"name\":\"perf_x\","
        "\"parallel\":{\"threads\":4},\"benchmarks\":[]}",
        run, &error))
        << error;
    EXPECT_EQ(run.threads, 4u);
    obs::BenchRun back;
    ASSERT_TRUE(obs::parseBenchReport(obs::benchRunToJsonLine(run),
                                      back, &error))
        << error;
    EXPECT_EQ(back.threads, 4u);
}

TEST(History, LedgerAppendsAndDeduplicates)
{
    TempFile ledger(".jsonl");
    obs::BenchRun run = makeRun("perf_channel", {10.0});

    bool appended = false;
    std::string error;
    ASSERT_TRUE(obs::appendToLedger(ledger.path(), run, &appended,
                                    &error))
        << error;
    EXPECT_TRUE(appended);

    // The identical run (same key, wall time, seed) is a duplicate.
    ASSERT_TRUE(obs::appendToLedger(ledger.path(), run, &appended));
    EXPECT_FALSE(appended);

    // A repeat of the same configuration (different wall time) is a
    // new sample under the same key.
    obs::BenchRun repeat = makeRun("perf_channel", {11.0}, 2.0);
    ASSERT_TRUE(obs::appendToLedger(ledger.path(), repeat,
                                    &appended));
    EXPECT_TRUE(appended);

    auto runs = obs::readLedger(ledger.path());
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].key(), runs[1].key());
    EXPECT_FALSE(obs::ledgerSummary(runs).empty());
}

TEST(History, ReadLedgerSkipsBadLines)
{
    TempFile ledger(".jsonl");
    {
        std::ofstream os(ledger.path());
        os << obs::benchRunToJsonLine(makeRun("perf_a", {1.0}))
           << "\n"
           << "this line is not json\n"
           << obs::benchRunToJsonLine(makeRun("perf_b", {2.0}))
           << "\n";
    }
    std::vector<std::string> errors;
    auto runs = obs::readLedger(ledger.path(), &errors);
    EXPECT_EQ(runs.size(), 2u);
    EXPECT_EQ(errors.size(), 1u);
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

} // namespace
} // namespace dnasim
