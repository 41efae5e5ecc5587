/**
 * @file
 * Shared main() for the perf_* microbenchmarks: google-benchmark's
 * usual driver plus a reporter that funnels every measurement into
 * the BENCH_<name>.json report, plus flags consumed before
 * benchmark::Initialize:
 *   --seed S        master RNG seed, recorded in the report
 *   --threads N     worker threads, recorded in the report
 *   --simd T        batch alignment kernel tier override
 *                   (auto/scalar/avx2/avx512), recorded in the
 *                   report so baselines pin the tier they measured
 *   --quick         CI perf-gate mode: short repetitions
 *                   (--benchmark_min_time=0.05s) so a full perf_*
 *                   binary finishes in seconds; noise is handled by
 *                   `dnasim bench diff` over repeats, not by long
 *                   runs
 *   --profile       enable tracing + RSS sampling; the phase profile
 *                   is printed to stderr and embedded in the report
 *   --trace-out F   write a Chrome trace JSON (flushed at exit)
 * The console table is coloured only when stdout is a terminal and
 * --benchmark_color is not false, so redirected output carries no
 * escape codes.
 */

#include <malloc.h>
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "align/simd_dispatch.hh"
#include "bench_report.hh"
#include "obs/profile.hh"
#include "obs/snapshot.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"

namespace
{

class ReportingReporter : public benchmark::ConsoleReporter
{
  public:
    using ConsoleReporter::ConsoleReporter;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        // High water since the previous report batch: ReportRuns
        // fires after each benchmark family finishes, so this bounds
        // the footprint of the rows reported here. Where VmHWM can't
        // be reset the value decays to "peak so far" (monotonic);
        // rss_source in the report header says which.
        const uint64_t rss_high_water = dnasim::peakRssBytes();
        for (const auto &run : reports) {
            if (run.error_occurred ||
                run.run_type == Run::RT_Aggregate)
                continue;
            dnasim::BenchRow row;
            row.name = run.benchmark_name();
            row.iterations = static_cast<uint64_t>(run.iterations);
            const double iters =
                run.iterations > 0
                    ? static_cast<double>(run.iterations)
                    : 1.0;
            row.real_time_ns = run.real_accumulated_time / iters * 1e9;
            row.cpu_time_ns = run.cpu_accumulated_time / iters * 1e9;
            row.rss_high_water_bytes = rss_high_water;
            dnasim::BenchReport::global().addRow(std::move(row));
        }
        // Hand the heap this family freed back to the kernel first:
        // glibc keeps freed arena pages resident, and VmHWM restarts
        // from what is resident, so without the trim the next family
        // would inherit this one's footprint.
        malloc_trim(0);
        dnasim::clearPeakRss();
        ConsoleReporter::ReportRuns(reports);
    }
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 0xbe9c;
    uint64_t threads = 0;
    std::string simd = "auto";
    bool quick = false;
    bool profile = false;
    std::string trace_out;
    bool color = isatty(STDOUT_FILENO) != 0;
    std::vector<char *> keep;
    // Owns strings injected into argv (benchmark::Initialize keeps
    // pointers into them).
    static std::vector<std::string> injected;
    keep.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--seed=", 0) == 0) {
            seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
            continue;
        }
        if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 0);
            continue;
        }
        if (arg.rfind("--threads=", 0) == 0) {
            threads = std::strtoull(arg.c_str() + 10, nullptr, 0);
            continue;
        }
        if (arg == "--threads" && i + 1 < argc) {
            threads = std::strtoull(argv[++i], nullptr, 0);
            continue;
        }
        if (arg.rfind("--simd=", 0) == 0) {
            simd = arg.substr(7);
            continue;
        }
        if (arg == "--simd" && i + 1 < argc) {
            simd = argv[++i];
            continue;
        }
        if (arg == "--quick") {
            quick = true;
            continue;
        }
        if (arg == "--profile") {
            profile = true;
            continue;
        }
        if (arg.rfind("--trace-out=", 0) == 0) {
            trace_out = arg.substr(12);
            continue;
        }
        if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
            continue;
        }
        if (arg.rfind("--benchmark_color=", 0) == 0) {
            const std::string value = arg.substr(18);
            if (value == "false" || value == "no" || value == "0" ||
                value == "off")
                color = false;
        }
        keep.push_back(argv[i]);
    }
    if (quick) {
        // google-benchmark 1.7 takes plain seconds here; later
        // releases also accept the "0.05s" suffix form.
        injected.push_back("--benchmark_min_time=0.05");
        keep.push_back(injected.back().data());
    }
    int kept_argc = static_cast<int>(keep.size());

    dnasim::par::setThreads(static_cast<size_t>(threads));
    if (!dnasim::applySimdOverride(simd)) {
        std::cerr << "--simd must be auto, scalar, avx2 or avx512, "
                     "got '"
                  << simd << "'\n";
        return 1;
    }

    std::string name = argv[0];
    auto slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);

    dnasim::BenchReport::global().init(name, seed);
    dnasim::BenchReport::global().setConfig("seed", seed);
    dnasim::BenchReport::global().setConfig(
        "threads", static_cast<uint64_t>(dnasim::par::numThreads()));
    dnasim::BenchReport::global().setConfig(
        "simd",
        std::string(dnasim::simdTierName(dnasim::activeSimdTier())));
    dnasim::BenchReport::global().setConfig(
        "quick", static_cast<uint64_t>(quick ? 1 : 0));

    if (profile || !trace_out.empty()) {
        dnasim::obs::Trace::global().enable();
        if (!trace_out.empty())
            dnasim::obs::Trace::global().setExitFlushPath(trace_out);
    }
    // The profiler's RSS series comes from the sampler thread,
    // which appends one reading per tick while tracing is on.
    if (profile) {
        dnasim::obs::TelemetrySampler::global().start(
            dnasim::obs::kProfilePeriodMs);
    }

    benchmark::Initialize(&kept_argc, keep.data());
    if (benchmark::ReportUnrecognizedArguments(kept_argc, keep.data()))
        return 1;
    ReportingReporter reporter(
        color ? benchmark::ConsoleReporter::OO_ColorTabular
              : benchmark::ConsoleReporter::OO_Tabular);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (profile) {
        dnasim::obs::TelemetrySampler::global().stop();
        std::cerr << dnasim::obs::profileToText(
            dnasim::obs::buildProfile(dnasim::obs::Trace::global()));
    }
    // BenchReport::write() runs at exit and flushes the trace too;
    // nothing further to do here.
    return 0;
}
