/**
 * @file
 * `dnasim bench diff <baseline> <candidate> [--out FILE]`: compare
 * two sets of dnasim.bench.v1 reports (obs/history.hh) with the
 * noise-aware verdict. Exits 2 when a benchmark regressed (the CI
 * perf gate), 1 on a usage or I/O error. RSS high-water deltas are
 * advisory. --out also writes the dnasim.benchdiff.v1 JSON report
 * to FILE.
 *
 * <baseline> and <candidate> each accept a single .json report or a
 * directory scanned recursively.
 */

#include "cli/commands.hh"

#include <iostream>

#include "base/logging.hh"
#include "base/output_file.hh"
#include "obs/history.hh"

namespace dnasim
{

namespace
{

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
    for (const auto &e : errors)
        warn("bench: skipped unparseable input: ", e);
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
    std::string error;
    if (!out_path.empty() &&
        !OutputFile::write(out_path, obs::diffToJson(report), &error)) {
        warn("bench: ", error);
        return 1;
    }
    // 0 = clean, 2 = regression; 1 stays reserved for usage/IO
    // errors so CI can tell "slow" apart from "broken".
    return report.ok() ? 0 : 2;
}

} // anonymous namespace

int
cmdBench(const Args &args)
{
    const auto &pos = args.positional();
    const std::string verb = pos.size() > 1 ? pos[1] : "";
    if (verb == "diff")
        return benchDiff(args);
    std::cerr << "usage: dnasim bench diff <baseline> <candidate> "
                 "[--out FILE]\n"
                 "  noise-aware perf comparison of two report sets\n";
    return verb == "help" ? 0 : 1;
}

} // namespace dnasim
