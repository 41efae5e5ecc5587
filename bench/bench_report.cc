#include "bench_report.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

#include "base/logging.hh"
#include "base/output_file.hh"
#include "obs/json.hh"
#include "obs/profile.hh"
#include "obs/provenance.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"

namespace dnasim
{

namespace
{

std::mutex report_mutex;

uint64_t
monotonicNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
writeAtExit()
{
    BenchReport::global().write();
}

} // anonymous namespace

BenchReport &
BenchReport::global()
{
    // Leaked so instrument references and the atexit hook never
    // outlive it.
    static BenchReport *g = new BenchReport();
    return *g;
}

void
BenchReport::init(const std::string &name, uint64_t seed)
{
    std::lock_guard<std::mutex> lock(report_mutex);
    seed_ = seed;
    if (initialized_)
        return;
    initialized_ = true;
    name_ = name;
    start_ns_ = monotonicNs();
    std::atexit(writeAtExit);
}

void
BenchReport::setConfig(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(report_mutex);
    for (auto &kv : config_) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    config_.emplace_back(key, value);
}

void
BenchReport::setConfig(const std::string &key, uint64_t value)
{
    setConfig(key, std::to_string(value));
}

void
BenchReport::setConfig(const std::string &key, double value)
{
    std::ostringstream os;
    os << value;
    setConfig(key, os.str());
}

void
BenchReport::addMetric(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(report_mutex);
    metrics_.emplace_back(name, value);
}

void
BenchReport::addRow(BenchRow row)
{
    std::lock_guard<std::mutex> lock(report_mutex);
    rows_.push_back(std::move(row));
}

std::string
BenchReport::write()
{
    std::lock_guard<std::mutex> lock(report_mutex);
    if (!initialized_ || written_)
        return "";
    written_ = true;

    const double wall_s =
        static_cast<double>(monotonicNs() - start_ns_) * 1e-9;

    std::string dir = ".";
    if (const char *d = std::getenv("DNASIM_BENCH_REPORT_DIR"))
        dir = d;
    const std::string path = dir + "/BENCH_" + name_ + ".json";

    obs::Snapshot snap = obs::Registry::global().snapshot();
    const uint64_t strands = snap.counter("channel.strands");
    const uint64_t bases = snap.counter("channel.bases_out");

    OutputFile out;
    std::string error;
    if (!out.open(path, &error)) {
        warn("bench report: ", error);
        // The report is lost, but an enabled trace can still land on
        // disk (no-op unless --trace-out configured an exit path).
        obs::Trace::global().flushExitFile();
        return "";
    }

    std::ostream &os = out.stream();
    obs::JsonWriter w(os);
    w.beginObject();
    w.value("schema", "dnasim.bench.v1");
    w.value("name", name_);
    w.value("git_rev", obs::gitRevision());
    // Shared provenance header (the top-level git_rev above predates
    // it and stays, so the schema keeps every field it had).
    obs::writeProvenance(w);
    w.value("seed", seed_);
    w.value("wall_time_s", wall_s);
    std::string rss_source;
    w.value("peak_rss_bytes", obs::peakRssBytes(&rss_source));
    w.value("rss_source", rss_source);

    w.beginObject("throughput");
    w.value("strands_simulated", strands);
    w.value("bases_emitted", bases);
    w.value("strands_per_s",
            wall_s > 0.0 ? static_cast<double>(strands) / wall_s : 0.0);
    w.value("bases_per_s",
            wall_s > 0.0 ? static_cast<double>(bases) / wall_s : 0.0);
    w.endObject();

    // Parallel-execution summary: configured worker-thread count,
    // aggregate busy time across workers, and the fraction of the
    // theoretical thread-seconds (wall x threads) actually spent in
    // parallel-loop bodies. See DESIGN.md "Deterministic
    // parallelism".
    const size_t threads = par::numThreads();
    const uint64_t busy_ns = snap.counter("par.busy_ns");
    w.beginObject("parallel");
    w.value("threads", static_cast<uint64_t>(threads));
    w.value("regions", snap.counter("par.regions"));
    w.value("serial_regions", snap.counter("par.serial_regions"));
    w.value("steals", snap.counter("par.steals"));
    w.value("busy_ns", busy_ns);
    w.value("cpu_ns", snap.counter("par.cpu_ns"));
    w.value("utilization",
            wall_s > 0.0 && threads > 0
                ? static_cast<double>(busy_ns) * 1e-9 /
                      (wall_s * static_cast<double>(threads))
                : 0.0);
    w.endObject();

    w.beginObject("config");
    for (const auto &[key, value] : config_)
        w.value(key, value);
    w.endObject();

    w.beginObject("metrics");
    for (const auto &[key, value] : metrics_)
        w.value(key, value);
    w.endObject();

    w.beginArray("benchmarks");
    for (const auto &row : rows_) {
        w.beginObject();
        w.value("name", row.name);
        w.value("real_time_ns", row.real_time_ns);
        w.value("cpu_time_ns", row.cpu_time_ns);
        w.value("iterations", row.iterations);
        if (row.rss_high_water_bytes > 0)
            w.value("rss_high_water_bytes", row.rss_high_water_bytes);
        w.endObject();
    }
    w.endArray();

    // Phase profile, when the run traced (--profile in perf_main).
    obs::Profile profile = obs::buildProfile(obs::Trace::global());
    if (!profile.empty())
        w.rawValue("profile", obs::profileToJson(profile));

    w.rawValue("stats", obs::statsToJson(snap));
    w.endObject();
    os << "\n";
    const bool written = out.commit(&error);

    // This writer runs from atexit, which an early std::exit also
    // reaches; flush any pending trace here so both files survive.
    obs::Trace::global().flushExitFile();
    if (!written) {
        warn("bench report: ", error);
        return "";
    }

    std::cerr << "# bench report: wrote " << path << "\n";
    return path;
}

Rng
benchRng(uint64_t salt)
{
    return Rng(BenchReport::global().seed()).fork(salt);
}

bool
clearPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    if (!clear)
        return false;
    // "5" resets the peak-RSS (VmHWM) accounting for this process.
    clear << "5";
    clear.flush();
    return clear.good();
}

} // namespace dnasim
