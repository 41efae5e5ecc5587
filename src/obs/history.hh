/**
 * @file
 * Loading of dnasim.bench.v1 reports and a noise-aware
 * performance-diff comparator over them.
 *
 * Repeats of a bench binary group by (run name, row name) into
 * samples, and the diff computes per-row mean/stddev over repeats
 * with a relative delta. The verdict is noise-aware: a row regresses
 * only when its slowdown exceeds max(kDiffThreshold, kDiffSigma x
 * pooled relative stddev), so single noisy repeats don't flag and
 * genuinely quiet benchmarks still trip on small real regressions.
 *
 * Consumed by `dnasim bench diff` and the CI perf gate (which diffs
 * quick-mode perf_* runs against bench/baselines/).
 */

#ifndef DNASIM_OBS_HISTORY_HH
#define DNASIM_OBS_HISTORY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dnasim
{
namespace obs
{

/** One benchmark measurement row of a run. */
struct BenchRunRow
{
    std::string name;
    double real_time_ns = 0.0;
    double cpu_time_ns = 0.0;
    uint64_t iterations = 0;
    /// Per-row RSS high-water mark (bytes; 0 when the source report
    /// predates the field or the platform can't measure it).
    uint64_t rss_high_water_bytes = 0;
};

/** The rows of one loaded dnasim.bench.v1 report. */
struct BenchRun
{
    std::string name; ///< bench binary ("perf_channel", ...)
    std::vector<BenchRunRow> rows;
};

/** Parse a dnasim.bench.v1 document. */
bool parseBenchReport(const std::string &json_text, BenchRun &out,
                      std::string *error = nullptr);

/** Load one BENCH_<name>.json file. */
bool loadBenchReport(const std::string &path, BenchRun &out,
                     std::string *error = nullptr);

/**
 * Load bench runs from @p path: a single .json report, or a
 * directory searched recursively for BENCH_*.json. Unparseable files
 * are reported into @p errors (when non-null) and skipped.
 */
std::vector<BenchRun> loadBenchInput(
    const std::string &path,
    std::vector<std::string> *errors = nullptr);

/** Minimum relative slowdown to flag regardless of noise. */
inline constexpr double kDiffThreshold = 0.05;
/** Noise multiplier: flag only beyond sigma x pooled stddev. */
inline constexpr double kDiffSigma = 3.0;
/**
 * Minimum relative RSS high-water growth to flag. Memory is far less
 * noisy than time, so there is no sigma term; rows missing the
 * statistic on either side are never flagged. Memory regressions are
 * advisory: printed and counted, but ok() ignores them.
 */
inline constexpr double kDiffMemThreshold = 0.25;

/** Mean/stddev of one row's repeats. */
struct RowStats
{
    size_t n = 0;
    double mean_ns = 0.0;
    double stddev_ns = 0.0; ///< sample stddev, 0 when n < 2
};

/** Outcome for one (benchmark, row) pair. */
enum class Verdict
{
    kOk,       ///< within noise
    kFaster,   ///< improved beyond the noise floor
    kSlower,   ///< REGRESSION: slowdown beyond the noise floor
    kOnlyInA,  ///< row present only in the baseline
    kOnlyInB,  ///< row present only in the candidate
};

/** One compared row. */
struct RowDelta
{
    std::string bench; ///< bench binary name
    std::string row;   ///< benchmark row name
    RowStats a, b;
    double rel_delta = 0.0; ///< (b.mean - a.mean) / a.mean
    double noise_rel = 0.0; ///< max(kDiffThreshold, kDiffSigma*pooled/mean_a)
    Verdict verdict = Verdict::kOk;
    /// Mean RSS high-water over repeats, bytes; 0 = not measured.
    double mem_a_bytes = 0.0;
    double mem_b_bytes = 0.0;
    /// (mem_b - mem_a) / mem_a; only meaningful when both sides are
    /// non-zero (mem_measured).
    double mem_rel_delta = 0.0;
    bool mem_measured = false;
    /// mem_rel_delta exceeded kDiffMemThreshold.
    bool mem_regressed = false;
};

/** Full comparison of two run sets. */
struct DiffReport
{
    std::vector<RowDelta> rows;

    size_t regressions() const;
    size_t improvements() const;
    /** Rows whose RSS high water grew beyond the mem threshold. */
    size_t memRegressions() const;
    /**
     * True when no row regressed on time (memory and missing rows
     * are advisory).
     */
    bool ok() const { return regressions() == 0; }
};

/**
 * Compare @p baseline against @p candidate. Rows group by
 * (run name, row name) across repeats; real_time_ns is the compared
 * statistic. Non-finite or non-positive samples are dropped.
 */
DiffReport diffBenchRuns(const std::vector<BenchRun> &baseline,
                         const std::vector<BenchRun> &candidate);

/** Human-readable diff table (one line per row + summary). */
std::string diffToText(const DiffReport &report);

/** Machine-readable diff (schema dnasim.benchdiff.v1). */
std::string diffToJson(const DiffReport &report);

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_HISTORY_HH
