#include "obs/history.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "obs/json.hh"
#include "obs/report.hh"

namespace dnasim
{
namespace obs
{

namespace
{

double
finiteOr(double v, double fallback)
{
    return std::isfinite(v) ? v : fallback;
}

struct Samples
{
    std::vector<double> values;
    std::vector<double> rss; ///< per-repeat RSS high water, bytes
};

double
meanOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

RowStats
computeStats(const std::vector<double> &values)
{
    RowStats stats;
    stats.n = values.size();
    if (values.empty())
        return stats;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    stats.mean_ns = sum / static_cast<double>(values.size());
    if (values.size() >= 2) {
        double ss = 0.0;
        for (double v : values) {
            double d = v - stats.mean_ns;
            ss += d * d;
        }
        stats.stddev_ns = std::sqrt(
            ss / static_cast<double>(values.size() - 1));
    }
    return stats;
}

std::string
fmtBytesShort(double bytes)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    if (bytes >= static_cast<double>(1ull << 30))
        os << bytes / static_cast<double>(1ull << 30) << "GiB";
    else if (bytes >= static_cast<double>(1ull << 20))
        os << bytes / static_cast<double>(1ull << 20) << "MiB";
    else
        os << bytes / 1024.0 << "KiB";
    return os.str();
}

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::kOk:      return "ok";
      case Verdict::kFaster:  return "faster";
      case Verdict::kSlower:  return "REGRESSED";
      case Verdict::kOnlyInA: return "only-in-baseline";
      case Verdict::kOnlyInB: return "only-in-candidate";
    }
    return "?";
}

} // anonymous namespace

bool
parseBenchReport(const std::string &json_text, BenchRun &out,
                 std::string *error)
{
    JsonValue doc;
    if (!parseJson(json_text, doc, error))
        return false;
    if (!doc.isObject()) {
        if (error)
            *error = "not a JSON object";
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    if (!schema || schema->asString() != "dnasim.bench.v1") {
        if (error)
            *error = "not a dnasim.bench.v1 document";
        return false;
    }

    out = BenchRun();
    if (const JsonValue *v = doc.find("name"))
        out.name = v->asString();
    if (out.name.empty()) {
        if (error)
            *error = "report has no name";
        return false;
    }

    if (const JsonValue *rows = doc.find("benchmarks")) {
        for (const auto &row : rows->array()) {
            BenchRunRow r;
            if (const JsonValue *v = row.find("name"))
                r.name = v->asString();
            if (r.name.empty())
                continue;
            if (const JsonValue *v = row.find("real_time_ns"))
                r.real_time_ns = finiteOr(v->asDouble(), 0.0);
            if (const JsonValue *v = row.find("cpu_time_ns"))
                r.cpu_time_ns = finiteOr(v->asDouble(), 0.0);
            if (const JsonValue *v = row.find("iterations"))
                r.iterations = v->asUint();
            if (const JsonValue *v = row.find("rss_high_water_bytes"))
                r.rss_high_water_bytes = v->asUint();
            out.rows.push_back(std::move(r));
        }
    }
    return true;
}

bool
loadBenchReport(const std::string &path, BenchRun &out,
                std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    if (!parseBenchReport(buffer.str(), out, error)) {
        if (error)
            *error = path + ": " + *error;
        return false;
    }
    return true;
}

std::vector<BenchRun>
loadBenchInput(const std::string &path,
               std::vector<std::string> *errors)
{
    namespace fs = std::filesystem;
    std::vector<BenchRun> runs;
    std::error_code ec;

    if (fs::is_directory(path, ec)) {
        std::vector<std::string> files;
        for (const auto &entry :
             fs::recursive_directory_iterator(path, ec)) {
            if (!entry.is_regular_file())
                continue;
            const std::string file = entry.path().filename().string();
            if (file.rfind("BENCH_", 0) == 0 &&
                entry.path().extension() == ".json")
                files.push_back(entry.path().string());
        }
        std::sort(files.begin(), files.end());
        for (const auto &file : files) {
            BenchRun run;
            std::string error;
            if (loadBenchReport(file, run, &error)) {
                runs.push_back(std::move(run));
            } else if (errors) {
                errors->push_back(error);
            }
        }
        return runs;
    }

    BenchRun run;
    std::string error;
    if (loadBenchReport(path, run, &error))
        runs.push_back(std::move(run));
    else if (errors)
        errors->push_back(error);
    return runs;
}

size_t
DiffReport::regressions() const
{
    size_t n = 0;
    for (const auto &row : rows)
        n += row.verdict == Verdict::kSlower ? 1 : 0;
    return n;
}

size_t
DiffReport::improvements() const
{
    size_t n = 0;
    for (const auto &row : rows)
        n += row.verdict == Verdict::kFaster ? 1 : 0;
    return n;
}

size_t
DiffReport::memRegressions() const
{
    size_t n = 0;
    for (const auto &row : rows)
        n += row.mem_regressed ? 1 : 0;
    return n;
}

DiffReport
diffBenchRuns(const std::vector<BenchRun> &baseline,
              const std::vector<BenchRun> &candidate)
{
    // Group repeats: (bench, row) -> real-time samples, dropping
    // non-finite and non-positive values (NaN guards). RSS samples
    // ride along; zero means "not measured" and is dropped so old
    // baselines without the field never produce a bogus delta.
    auto collect = [](const std::vector<BenchRun> &runs) {
        std::map<std::pair<std::string, std::string>, Samples> out;
        for (const auto &run : runs) {
            for (const auto &row : run.rows) {
                if (!std::isfinite(row.real_time_ns) ||
                    row.real_time_ns <= 0.0)
                    continue;
                Samples &s = out[{run.name, row.name}];
                s.values.push_back(row.real_time_ns);
                if (row.rss_high_water_bytes > 0)
                    s.rss.push_back(static_cast<double>(
                        row.rss_high_water_bytes));
            }
        }
        return out;
    };
    auto a_samples = collect(baseline);
    auto b_samples = collect(candidate);

    std::map<std::pair<std::string, std::string>, int> keys;
    for (const auto &[key, s] : a_samples)
        keys[key] |= 1;
    for (const auto &[key, s] : b_samples)
        keys[key] |= 2;

    DiffReport report;
    for (const auto &[key, sides] : keys) {
        RowDelta delta;
        delta.bench = key.first;
        delta.row = key.second;
        if (sides == 1) {
            delta.a = computeStats(a_samples[key].values);
            delta.verdict = Verdict::kOnlyInA;
            report.rows.push_back(std::move(delta));
            continue;
        }
        if (sides == 2) {
            delta.b = computeStats(b_samples[key].values);
            delta.verdict = Verdict::kOnlyInB;
            report.rows.push_back(std::move(delta));
            continue;
        }
        delta.a = computeStats(a_samples[key].values);
        delta.b = computeStats(b_samples[key].values);
        delta.rel_delta =
            (delta.b.mean_ns - delta.a.mean_ns) / delta.a.mean_ns;

        // Pooled stddev over both sides; with < 3 total samples
        // there is no variance evidence and the fixed threshold is
        // the only floor (zero-variance baselines behave the same).
        double pooled = 0.0;
        const size_t na = delta.a.n, nb = delta.b.n;
        if (na + nb > 2) {
            double sa = delta.a.stddev_ns, sb = delta.b.stddev_ns;
            pooled = std::sqrt(
                (static_cast<double>(na - 1) * sa * sa +
                 static_cast<double>(nb - 1) * sb * sb) /
                static_cast<double>(na + nb - 2));
        }
        delta.noise_rel = std::max(
            kDiffThreshold, kDiffSigma * pooled / delta.a.mean_ns);

        if (delta.rel_delta > delta.noise_rel)
            delta.verdict = Verdict::kSlower;
        else if (delta.rel_delta < -delta.noise_rel)
            delta.verdict = Verdict::kFaster;

        // Memory is compared only when both sides measured it. The
        // verdict above stays a time verdict; mem_regressed is a
        // parallel advisory flag that ok() does not consult.
        delta.mem_a_bytes = meanOf(a_samples[key].rss);
        delta.mem_b_bytes = meanOf(b_samples[key].rss);
        delta.mem_measured =
            delta.mem_a_bytes > 0.0 && delta.mem_b_bytes > 0.0;
        if (delta.mem_measured) {
            delta.mem_rel_delta =
                (delta.mem_b_bytes - delta.mem_a_bytes) /
                delta.mem_a_bytes;
            delta.mem_regressed =
                delta.mem_rel_delta > kDiffMemThreshold;
        }
        report.rows.push_back(std::move(delta));
    }
    return report;
}

std::string
diffToText(const DiffReport &report)
{
    std::ostringstream os;
    os << std::left << std::setw(52) << "benchmark/row"
       << std::right << std::setw(16) << "baseline"
       << std::setw(16) << "candidate" << std::setw(10) << "delta"
       << std::setw(10) << "noise" << "  verdict\n";
    size_t unmatched = 0;
    for (const auto &row : report.rows) {
        os << std::left << std::setw(52)
           << (row.bench + "/" + row.row) << std::right;
        if (row.verdict == Verdict::kOnlyInA ||
            row.verdict == Verdict::kOnlyInB) {
            ++unmatched;
            os << std::setw(16)
               << (row.a.n ? fmtDurationNs(static_cast<uint64_t>(
                                 row.a.mean_ns))
                           : "-")
               << std::setw(16)
               << (row.b.n ? fmtDurationNs(static_cast<uint64_t>(
                                 row.b.mean_ns))
                           : "-")
               << std::setw(10) << "-" << std::setw(10) << "-"
               << "  " << verdictName(row.verdict) << "\n";
            continue;
        }
        std::ostringstream a, b, d, n;
        a << fmtDurationNs(static_cast<uint64_t>(row.a.mean_ns))
          << " (n=" << row.a.n << ")";
        b << fmtDurationNs(static_cast<uint64_t>(row.b.mean_ns))
          << " (n=" << row.b.n << ")";
        d << std::showpos << std::fixed << std::setprecision(1)
          << row.rel_delta * 100.0 << "%";
        n << std::fixed << std::setprecision(1)
          << row.noise_rel * 100.0 << "%";
        os << std::setw(16) << a.str() << std::setw(16) << b.str()
           << std::setw(10) << d.str() << std::setw(10) << n.str()
           << "  " << verdictName(row.verdict);
        if (row.mem_measured) {
            os << "  [rss " << fmtBytesShort(row.mem_a_bytes)
               << " -> " << fmtBytesShort(row.mem_b_bytes) << ", "
               << std::showpos << std::fixed << std::setprecision(1)
               << row.mem_rel_delta * 100.0 << "%" << std::noshowpos;
            if (row.mem_regressed)
                os << " MEM-REGRESSED";
            os << "]";
        }
        os << "\n";
    }
    os << "summary: " << report.rows.size() << " rows, "
       << report.regressions() << " regressions, "
       << report.improvements() << " improvements, " << unmatched
       << " unmatched, " << report.memRegressions()
       << " mem regressions (advisory) (threshold " << std::fixed
       << std::setprecision(1) << kDiffThreshold * 100.0
       << "%, sigma " << std::setprecision(1) << kDiffSigma
       << ", mem threshold " << std::setprecision(1)
       << kDiffMemThreshold * 100.0 << "%)\n";
    return os.str();
}

std::string
diffToJson(const DiffReport &report)
{
    std::ostringstream os;
    JsonWriter w(os, 2);
    w.beginObject();
    w.value("schema", "dnasim.benchdiff.v1");
    w.value("threshold", kDiffThreshold);
    w.value("sigma", kDiffSigma);
    w.value("mem_threshold", kDiffMemThreshold);
    // Memory verdicts never gate; the field keeps the schema stable.
    w.value("mem_gate", false);
    w.value("regressions", static_cast<uint64_t>(
                               report.regressions()));
    w.value("improvements", static_cast<uint64_t>(
                                report.improvements()));
    w.value("mem_regressions", static_cast<uint64_t>(
                                   report.memRegressions()));
    w.value("ok", report.ok());
    w.beginArray("rows");
    for (const auto &row : report.rows) {
        w.beginObject();
        w.value("bench", row.bench);
        w.value("row", row.row);
        w.value("n_a", static_cast<uint64_t>(row.a.n));
        w.value("mean_a_ns", row.a.mean_ns);
        w.value("stddev_a_ns", row.a.stddev_ns);
        w.value("n_b", static_cast<uint64_t>(row.b.n));
        w.value("mean_b_ns", row.b.mean_ns);
        w.value("stddev_b_ns", row.b.stddev_ns);
        w.value("rel_delta", row.rel_delta);
        w.value("noise_rel", row.noise_rel);
        w.value("verdict", verdictName(row.verdict));
        if (row.mem_measured) {
            w.value("mem_a_bytes", row.mem_a_bytes);
            w.value("mem_b_bytes", row.mem_b_bytes);
            w.value("mem_rel_delta", row.mem_rel_delta);
            w.value("mem_regressed", row.mem_regressed);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return os.str();
}

} // namespace obs
} // namespace dnasim
