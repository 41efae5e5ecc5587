/**
 * @file
 * The machine-readable bench report funnel: every perf, table, fig
 * and ablation binary records its configuration, derived metrics and
 * benchmark rows here, and a BENCH_<name>.json document
 * (schema "dnasim.bench.v1", documented in EXPERIMENTS.md) is
 * written on process exit. The report embeds wall time, throughput
 * derived from the channel counters, peak RSS, the git revision and
 * a full dnasim.stats.v1 snapshot.
 */

#ifndef DNASIM_BENCH_BENCH_REPORT_HH
#define DNASIM_BENCH_BENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hh"

namespace dnasim
{

/** One google-benchmark (or hand-timed) measurement row. */
struct BenchRow
{
    std::string name;
    double real_time_ns = 0.0;
    double cpu_time_ns = 0.0;
    uint64_t iterations = 0;
    /// RSS high-water mark attributed to this row (bytes; 0 when
    /// unavailable). perf_main resets the kernel's VmHWM counter
    /// between rows, so each value bounds that row's own footprint —
    /// the statistic `dnasim bench diff` reports memory regressions
    /// on (advisory).
    uint64_t rss_high_water_bytes = 0;
};

/** Process-wide collector behind the BENCH_<name>.json funnel. */
class BenchReport
{
  public:
    static BenchReport &global();

    /**
     * Start collecting: names the report, fixes the master seed and
     * registers the exit-time writer. Safe to call once; later calls
     * only update the seed.
     */
    void init(const std::string &name, uint64_t seed);

    /** True once init() has run. */
    bool initialized() const { return initialized_; }

    uint64_t seed() const { return seed_; }

    /** Echo one configuration key (stringified) into the report. */
    void setConfig(const std::string &key, const std::string &value);
    void setConfig(const std::string &key, uint64_t value);
    void setConfig(const std::string &key, double value);

    /** Record a named scalar result (accuracy, gap, ...). */
    void addMetric(const std::string &name, double value);

    /** Record one benchmark measurement row. */
    void addRow(BenchRow row);

    /**
     * Write BENCH_<name>.json into the current directory (or
     * $DNASIM_BENCH_REPORT_DIR). Runs automatically at exit; call
     * explicitly to flush early. Returns the path written, empty on
     * failure or when init() never ran.
     */
    std::string write();

  private:
    BenchReport() = default;

    bool initialized_ = false;
    bool written_ = false;
    std::string name_;
    uint64_t seed_ = 0xbe9c;
    uint64_t start_ns_ = 0;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<BenchRow> rows_;
};

/**
 * Deterministic Rng stream for bench code: master seed (from --seed
 * via BenchReport::init, default 0xbe9c) forked by @p salt.
 */
Rng benchRng(uint64_t salt);

/**
 * Reset the kernel's peak-RSS counter (VmHWM) by writing "5" to
 * /proc/self/clear_refs, so the next obs::peakRssBytes() reads the
 * high water of only the work since this call. Returns false where
 * the interface doesn't exist or the write is refused (non-Linux,
 * restricted containers) — peaks then stay monotonic and per-row
 * attribution degrades to "peak so far", never to a wrong number.
 */
bool clearPeakRss();

} // namespace dnasim

#endif // DNASIM_BENCH_BENCH_REPORT_HH
