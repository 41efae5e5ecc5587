#include "obs/report.hh"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "base/logging.hh"
#include "base/output_file.hh"
#include "obs/json.hh"
#include "obs/profile.hh"
#include "obs/provenance.hh"

namespace dnasim
{
namespace obs
{

std::string
fmtDurationNs(uint64_t ns)
{
    std::ostringstream os;
    os << std::fixed;
    if (ns >= 1'000'000'000ull) {
        os << std::setprecision(3)
           << static_cast<double>(ns) / 1e9 << " s";
    } else if (ns >= 1'000'000ull) {
        os << std::setprecision(3)
           << static_cast<double>(ns) / 1e6 << " ms";
    } else if (ns >= 1'000ull) {
        os << std::setprecision(3)
           << static_cast<double>(ns) / 1e3 << " us";
    } else {
        os << ns << " ns";
    }
    return os.str();
}

namespace
{

/**
 * Nanosecond scale of a time-valued distribution, inferred from its
 * name suffix (_ns/_us/_ms/_s); 0 for non-time distributions.
 */
uint64_t
timeUnitScaleNs(const std::string &name)
{
    auto ends_with = [&](const char *suffix) {
        size_t len = std::strlen(suffix);
        return name.size() >= len &&
               name.compare(name.size() - len, len, suffix) == 0;
    };
    if (ends_with("_ns"))
        return 1;
    if (ends_with("_us"))
        return 1'000;
    if (ends_with("_ms"))
        return 1'000'000;
    if (ends_with("_s"))
        return 1'000'000'000;
    return 0;
}

/** Value of a time distribution in its human-readable unit. */
std::string
fmtDistValue(double value, uint64_t scale_ns)
{
    if (scale_ns == 0) {
        std::ostringstream os;
        os << std::fixed << std::setprecision(2) << value;
        return os.str();
    }
    return fmtDurationNs(static_cast<uint64_t>(
        value * static_cast<double>(scale_ns)));
}

void
line(std::ostream &os, const std::string &name,
     const std::string &value, const std::string &desc)
{
    os << "  " << std::left << std::setw(40) << name << " "
       << std::right << std::setw(16) << value;
    if (!desc.empty())
        os << "   # " << desc;
    os << "\n";
}

} // anonymous namespace

std::string
statsToText(const Snapshot &snap)
{
    std::ostringstream os;
    if (!snap.counters.empty()) {
        os << "counters:\n";
        for (const auto &c : snap.counters)
            line(os, c.name, std::to_string(c.value), c.desc);
    }
    if (!snap.gauges.empty()) {
        os << "gauges:\n";
        for (const auto &g : snap.gauges)
            line(os, g.name, std::to_string(g.value), g.desc);
    }
    if (!snap.timers.empty()) {
        os << "timers:\n";
        for (const auto &t : snap.timers) {
            std::ostringstream v;
            v << fmtDurationNs(t.total_ns) << " /" << t.count
              << " p50=" << fmtDurationNs(t.p50_ns)
              << " p90=" << fmtDurationNs(t.p90_ns)
              << " p99=" << fmtDurationNs(t.p99_ns);
            line(os, t.name, v.str(), t.desc);
        }
    }
    if (!snap.distributions.empty()) {
        os << "distributions:\n";
        for (const auto &d : snap.distributions) {
            // Time-valued distributions (by _ns/_us/_ms/_s suffix)
            // print in human-readable units instead of raw ticks.
            const uint64_t scale = timeUnitScaleNs(d.name);
            auto fmt = [&](uint64_t value) {
                return fmtDistValue(static_cast<double>(value),
                                    scale);
            };
            std::ostringstream v;
            v << "n=" << d.count << " mean="
              << fmtDistValue(d.mean, scale) << " [" << fmt(d.min)
              << "," << fmt(d.max) << "] p50=" << fmt(d.p50)
              << " p90=" << fmt(d.p90) << " p99=" << fmt(d.p99);
            line(os, d.name, v.str(), d.desc);
        }
    }
    if (snap.empty())
        os << "(no stats recorded)\n";
    return os.str();
}

std::string
statsToJson(const Snapshot &snap, const std::vector<LogLine> &log,
            const Profile *profile)
{
    std::ostringstream os;
    JsonWriter w(os, 2);
    w.beginObject();
    w.value("schema", "dnasim.stats.v1");
    writeProvenance(w);

    w.beginObject("counters");
    for (const auto &c : snap.counters)
        w.value(c.name, c.value);
    w.endObject();

    w.beginObject("gauges");
    for (const auto &g : snap.gauges)
        w.value(g.name, g.value);
    w.endObject();

    w.beginObject("timers");
    for (const auto &t : snap.timers) {
        w.beginObject(t.name);
        w.value("count", t.count);
        w.value("total_ns", t.total_ns);
        w.value("max_ns", t.max_ns);
        w.value("mean_ns",
                t.count == 0
                    ? 0.0
                    : static_cast<double>(t.total_ns) /
                          static_cast<double>(t.count));
        w.value("p50_ns", t.p50_ns);
        w.value("p90_ns", t.p90_ns);
        w.value("p99_ns", t.p99_ns);
        w.value("p999_ns", t.p999_ns);
        w.endObject();
    }
    w.endObject();

    w.beginObject("distributions");
    for (const auto &d : snap.distributions) {
        w.beginObject(d.name);
        w.value("count", d.count);
        w.value("sum", d.sum);
        w.value("mean", d.mean);
        w.value("min", d.min);
        w.value("max", d.max);
        w.value("p50", d.p50);
        w.value("p90", d.p90);
        w.value("p99", d.p99);
        w.value("p999", d.p999);
        w.endObject();
    }
    w.endObject();

    w.beginArray("log");
    for (const auto &l : log) {
        w.beginObject();
        w.value("level", l.level);
        w.value("message", l.message);
        w.endObject();
    }
    w.endArray();

    // Phase profiler section (backwards-compatible addition: only
    // present when a profile was built from an enabled trace).
    if (profile && !profile->empty())
        w.rawValue("profile", profileToJson(*profile));

    // Descriptions ride in a parallel object so the value maps above
    // stay directly loadable into dataframes.
    w.beginObject("descriptions");
    for (const auto &c : snap.counters)
        if (!c.desc.empty())
            w.value(c.name, c.desc);
    for (const auto &g : snap.gauges)
        if (!g.desc.empty())
            w.value(g.name, g.desc);
    for (const auto &t : snap.timers)
        if (!t.desc.empty())
            w.value(t.name, t.desc);
    for (const auto &d : snap.distributions)
        if (!d.desc.empty())
            w.value(d.name, d.desc);
    w.endObject();

    w.endObject();
    os << '\n';
    return os.str();
}

bool
writeStatsJson(const std::string &path, const Snapshot &snap,
               const std::vector<LogLine> &log,
               const Profile *profile)
{
    std::string error;
    if (OutputFile::write(path, statsToJson(snap, log, profile), &error))
        return true;
    warn("stats: ", error);
    return false;
}

namespace
{

std::mutex capture_mutex;
std::vector<LogLine> captured_log;

} // anonymous namespace

void
startLogCapture()
{
    setLogSink([](LogLevel level, const std::string &msg) {
        {
            std::lock_guard<std::mutex> lock(capture_mutex);
            captured_log.push_back(LogLine{
                level == LogLevel::Warn ? "warn" : "info", msg});
        }
        std::cerr << (level == LogLevel::Warn ? "warn: " : "info: ")
                  << msg << std::endl;
    });
}

std::vector<LogLine>
capturedLog()
{
    std::lock_guard<std::mutex> lock(capture_mutex);
    return captured_log;
}

} // namespace obs
} // namespace dnasim
