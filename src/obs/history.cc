#include "obs/history.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "base/logging.hh"
#include "obs/json.hh"
#include "obs/report.hh"

namespace dnasim
{
namespace obs
{

namespace
{

/** 64-bit FNV-1a over @p s. */
uint64_t
fnv1a(const std::string &s, uint64_t hash = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

double
finiteOr(double v, double fallback)
{
    return std::isfinite(v) ? v : fallback;
}

/** Stringify a config value that may be a string or a number. */
std::string
configValue(const JsonValue &v)
{
    if (v.isString())
        return v.asString();
    if (v.isNumber()) {
        std::ostringstream os;
        os << v.asDouble();
        return os.str();
    }
    if (v.isBool())
        return v.asBool() ? "1" : "0";
    return "";
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

std::string
BenchRun::configHash() const
{
    std::vector<std::string> entries;
    entries.reserve(config.size());
    for (const auto &[key, value] : config) {
        if (key == "threads")
            continue; // part of the run key on its own
        entries.push_back(key + "=" + value);
    }
    std::sort(entries.begin(), entries.end());
    uint64_t hash = fnv1a(name);
    for (const auto &e : entries)
        hash = fnv1a(e, hash);
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

std::string
BenchRun::key() const
{
    return name + "|" + configHash() + "|t" +
           std::to_string(threads) + "|" + git_rev;
}

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
    if (const JsonValue *v = doc.find("git_rev"))
        out.git_rev = v->asString();
    if (out.git_rev.empty())
        out.git_rev = "unknown";
    if (const JsonValue *v = doc.find("seed"))
        out.seed = v->asUint();
    if (const JsonValue *v = doc.find("wall_time_s"))
        out.wall_time_s = finiteOr(v->asDouble(), 0.0);
    if (const JsonValue *v = doc.find("peak_rss_bytes"))
        out.peak_rss_bytes = v->asUint();
    if (const JsonValue *v = doc.find("rss_source"))
        out.rss_source = v->asString();

    if (const JsonValue *tp = doc.find("throughput")) {
        if (const JsonValue *v = tp->find("strands_per_s"))
            out.strands_per_s = finiteOr(v->asDouble(), 0.0);
        if (const JsonValue *v = tp->find("bases_per_s"))
            out.bases_per_s = finiteOr(v->asDouble(), 0.0);
    }

    if (const JsonValue *cfg = doc.find("config")) {
        for (const auto &[key, value] : cfg->object())
            out.config.emplace_back(key, configValue(value));
    }

    out.threads = 0;
    for (const auto &[key, value] : out.config) {
        if (key == "threads")
            out.threads = std::strtoull(value.c_str(), nullptr, 10);
    }
    if (out.threads == 0) {
        if (const JsonValue *par = doc.find("parallel")) {
            if (const JsonValue *v = par->find("threads"))
                out.threads = v->asUint();
        }
    }
    if (out.threads == 0)
        out.threads = 1;

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
    out.source = path;
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

    if (fs::path(path).extension() == ".jsonl")
        return readLedger(path, errors);

    BenchRun run;
    std::string error;
    if (loadBenchReport(path, run, &error))
        runs.push_back(std::move(run));
    else if (errors)
        errors->push_back(error);
    return runs;
}

std::string
benchRunToJsonLine(const BenchRun &run)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.value("schema", "dnasim.bench.v1");
    w.value("name", run.name);
    w.value("git_rev", run.git_rev);
    w.value("seed", run.seed);
    w.value("wall_time_s", run.wall_time_s);
    w.value("peak_rss_bytes", run.peak_rss_bytes);
    w.value("rss_source", run.rss_source);
    w.beginObject("throughput");
    w.value("strands_per_s", run.strands_per_s);
    w.value("bases_per_s", run.bases_per_s);
    w.endObject();
    w.beginObject("config");
    bool has_threads = false;
    for (const auto &[key, value] : run.config) {
        w.value(key, value);
        has_threads = has_threads || key == "threads";
    }
    // Threads may have come from the "parallel" block of the source
    // report; keep it in config so the line round-trips.
    if (!has_threads)
        w.value("threads", std::to_string(run.threads));
    w.endObject();
    w.beginArray("benchmarks");
    for (const auto &row : run.rows) {
        w.beginObject();
        w.value("name", row.name);
        w.value("real_time_ns", row.real_time_ns);
        w.value("cpu_time_ns", row.cpu_time_ns);
        w.value("iterations", row.iterations);
        // Emitted only when measured so lines from pre-RSS reports
        // round-trip byte-identically.
        if (row.rss_high_water_bytes > 0)
            w.value("rss_high_water_bytes", row.rss_high_water_bytes);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return os.str();
}

bool
appendToLedger(const std::string &path, const BenchRun &run,
               bool *appended, std::string *error)
{
    if (appended)
        *appended = false;
    // Append-only with idempotent re-ingestion: an existing line
    // with the same key, seed and wall time is the same run.
    for (const auto &existing : readLedger(path, nullptr)) {
        if (existing.key() == run.key() &&
            existing.seed == run.seed &&
            existing.wall_time_s == run.wall_time_s)
            return true;
    }
    std::ofstream os(path, std::ios::app);
    if (!os) {
        if (error)
            *error = "cannot open ledger " + path;
        return false;
    }
    os << benchRunToJsonLine(run) << "\n";
    if (!os.good()) {
        if (error)
            *error = "write failed for ledger " + path;
        return false;
    }
    if (appended)
        *appended = true;
    return true;
}

std::vector<BenchRun>
readLedger(const std::string &path,
           std::vector<std::string> *errors)
{
    std::vector<BenchRun> runs;
    std::ifstream is(path);
    if (!is)
        return runs;
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        BenchRun run;
        std::string error;
        if (parseBenchReport(line, run, &error)) {
            run.source = path + ":" + std::to_string(lineno);
            runs.push_back(std::move(run));
        } else if (errors) {
            errors->push_back(path + ":" + std::to_string(lineno) +
                              ": " + error);
        }
    }
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

std::string
ledgerSummary(const std::vector<BenchRun> &runs)
{
    struct Group
    {
        std::string name, git_rev;
        uint64_t threads = 1;
        size_t count = 0;
        double wall_min = 0.0, wall_max = 0.0;
        size_t rows = 0;
    };
    std::vector<std::string> order;
    std::map<std::string, Group> groups;
    for (const auto &run : runs) {
        const std::string key = run.key();
        auto it = groups.find(key);
        if (it == groups.end()) {
            order.push_back(key);
            Group g;
            g.name = run.name;
            g.git_rev = run.git_rev;
            g.threads = run.threads;
            g.count = 1;
            g.wall_min = g.wall_max = run.wall_time_s;
            g.rows = run.rows.size();
            groups.emplace(key, g);
            continue;
        }
        Group &g = it->second;
        ++g.count;
        g.wall_min = std::min(g.wall_min, run.wall_time_s);
        g.wall_max = std::max(g.wall_max, run.wall_time_s);
        g.rows = std::max(g.rows, run.rows.size());
    }

    std::ostringstream os;
    os << std::left << std::setw(20) << "benchmark" << std::setw(10)
       << "git-rev" << std::right << std::setw(8) << "threads"
       << std::setw(8) << "repeats" << std::setw(8) << "rows"
       << std::setw(20) << "wall min..max (s)" << "\n";
    for (const auto &key : order) {
        const Group &g = groups.at(key);
        std::ostringstream wall;
        wall << std::fixed << std::setprecision(2) << g.wall_min
             << ".." << g.wall_max;
        os << std::left << std::setw(20) << g.name << std::setw(10)
           << g.git_rev << std::right << std::setw(8) << g.threads
           << std::setw(8) << g.count << std::setw(8) << g.rows
           << std::setw(20) << wall.str() << "\n";
    }
    os << "total: " << runs.size() << " runs, " << order.size()
       << " distinct keys\n";
    return os.str();
}

} // namespace obs
} // namespace dnasim
