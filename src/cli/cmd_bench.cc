/**
 * @file
 * The `dnasim bench` verb family over the bench trajectory ledger
 * (obs/history.hh):
 *
 *   bench ingest <input>... [--ledger FILE]
 *       fold BENCH_*.json reports (files or directories) into the
 *       append-only JSONL ledger, deduplicating repeats
 *   bench diff <baseline> <candidate> [--out FILE]
 *       compare two run sets with the noise-aware verdict; exits 2
 *       when a benchmark regressed (the CI perf gate), 1 on a usage
 *       or I/O error. RSS high-water deltas are advisory. --out also
 *       writes the dnasim.benchdiff.v1 JSON report to FILE.
 *   bench list [--ledger FILE]
 *       print the per-key trajectory summary of a ledger
 *
 * <baseline>/<candidate>/<input> each accept a single .json report,
 * a .jsonl ledger, or a directory scanned recursively.
 */

#include "cli/commands.hh"

#include <fstream>
#include <iostream>

#include "base/logging.hh"
#include "obs/history.hh"

namespace dnasim
{

namespace
{

constexpr const char *kDefaultLedger = "BENCH_LEDGER.jsonl";

void
reportLoadErrors(const std::vector<std::string> &errors)
{
    for (const auto &e : errors)
        warn("bench: skipped unparseable input: ", e);
}

int
benchIngest(const Args &args)
{
    const auto &pos = args.positional();
    if (pos.size() < 3) {
        std::cerr << "usage: dnasim bench ingest <input>... "
                     "[--ledger FILE]\n";
        return 1;
    }
    const std::string ledger = args.get("ledger", kDefaultLedger);

    size_t seen = 0, added = 0;
    for (size_t i = 2; i < pos.size(); ++i) {
        std::vector<std::string> errors;
        for (const auto &run : obs::loadBenchInput(pos[i], &errors)) {
            ++seen;
            bool appended = false;
            std::string error;
            if (!obs::appendToLedger(ledger, run, &appended,
                                     &error)) {
                warn("bench: ", error);
                return 1;
            }
            added += appended ? 1 : 0;
        }
        reportLoadErrors(errors);
    }
    std::cout << "bench: ingested " << seen << " runs into " << ledger
              << " (" << added << " new, " << (seen - added)
              << " duplicate)\n";
    return seen == 0 ? 1 : 0;
}

int
benchDiff(const Args &args)
{
    const auto &pos = args.positional();
    if (pos.size() != 4) {
        std::cerr << "usage: dnasim bench diff <baseline> "
                     "<candidate> [--out FILE]\n";
        return 1;
    }

    std::vector<std::string> errors;
    auto baseline = obs::loadBenchInput(pos[2], &errors);
    auto candidate = obs::loadBenchInput(pos[3], &errors);
    reportLoadErrors(errors);
    if (baseline.empty()) {
        warn("bench: no baseline runs in ", pos[2]);
        return 1;
    }
    if (candidate.empty()) {
        warn("bench: no candidate runs in ", pos[3]);
        return 1;
    }

    obs::DiffReport report = obs::diffBenchRuns(baseline, candidate);
    std::cout << obs::diffToText(report);
    const std::string out_path = args.get("out");
    if (!out_path.empty()) {
        std::ofstream os(out_path);
        os << obs::diffToJson(report);
        os.close();
        if (!os) {
            warn("bench: cannot write ", out_path);
            return 1;
        }
    }
    // 0 = clean, 2 = regression; 1 stays reserved for usage/IO
    // errors so CI can tell "slow" apart from "broken".
    return report.ok() ? 0 : 2;
}

int
benchList(const Args &args)
{
    const std::string ledger = args.get("ledger", kDefaultLedger);
    std::vector<std::string> errors;
    auto runs = obs::readLedger(ledger, &errors);
    reportLoadErrors(errors);
    if (runs.empty()) {
        warn("bench: no runs in ledger ", ledger);
        return 1;
    }
    std::cout << obs::ledgerSummary(runs);
    return 0;
}

} // anonymous namespace

int
cmdBench(const Args &args)
{
    const auto &pos = args.positional();
    const std::string verb = pos.size() > 1 ? pos[1] : "";
    if (verb == "ingest")
        return benchIngest(args);
    if (verb == "diff")
        return benchDiff(args);
    if (verb == "list")
        return benchList(args);
    std::cerr << "usage: dnasim bench <ingest|diff|list> [args]\n"
                 "  ingest <input>... [--ledger FILE]   fold reports "
                 "into the ledger\n"
                 "  diff <baseline> <candidate>         noise-aware "
                 "perf comparison\n"
                 "       [--out FILE]\n"
                 "  list [--ledger FILE]                trajectory "
                 "summary per run key\n";
    return verb.empty() ? 1 : (verb == "help" ? 0 : 1);
}

} // namespace dnasim
