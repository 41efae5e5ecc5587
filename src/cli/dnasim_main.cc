/**
 * @file
 * Entry point of the dnasim command-line tool.
 *
 * Observability flags understood before any subcommand runs:
 *   --stats-out=FILE  write a dnasim.stats.v1 JSON snapshot on exit
 *   --stats           dump the stats snapshot as text to stderr
 *   --trace-out=FILE  enable tracing, write Chrome trace JSON on exit
 *                     (also flushed from an atexit hook, so an early
 *                     std::exit still yields a loadable file)
 *   --profile         enable tracing + RSS sampling, print the
 *                     hierarchical phase profile to stderr on exit;
 *                     combined with --stats-out the JSON snapshot
 *                     gains a "profile" section
 *   --progress={auto,always,never}  live stderr status line; auto
 *                     paints only on a TTY
 *   --threads=N       worker threads for parallel loops, at most
 *                     par::kMaxThreads (default: DNASIM_THREADS or
 *                     hardware concurrency); results are identical
 *                     for every N
 *   --simd={auto,scalar,avx2,avx512}  batch alignment kernel tier
 *                     (default: DNASIM_SIMD or the widest tier the
 *                     CPU supports); results are identical for
 *                     every tier
 *
 * Observability only ever writes to its own files and stderr; stdout
 * and all data outputs stay byte-identical whether or not it is
 * enabled.
 *
 * A flag the command does not read, or a value given to a bare
 * boolean flag, is fatal before anything runs (checkFlags).
 */

#include <cstring>
#include <iostream>

#include "align/simd_dispatch.hh"
#include "base/logging.hh"
#include "cli/args.hh"
#include "cli/commands.hh"
#include "obs/profile.hh"
#include "obs/progress.hh"
#include "obs/report.hh"
#include "obs/snapshot.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"

namespace
{

/** The CLI's one report of a user error. */
void
reportFatal(const dnasim::FatalError &e)
{
    std::cerr << "fatal: " << e.what() << "\n @ " << e.file() << ":"
              << e.line() << std::endl;
}

int
dispatch(const std::string &command, const dnasim::Args &args)
{
    using namespace dnasim;

    if (command == "generate")
        return cmdGenerate(args);
    if (command == "calibrate")
        return cmdCalibrate(args);
    if (command == "simulate")
        return cmdSimulate(args);
    if (command == "reconstruct")
        return cmdReconstruct(args);
    if (command == "analyze")
        return cmdAnalyze(args);
    if (command == "ingest")
        return cmdIngest(args);
    if (command == "cluster")
        return cmdCluster(args);
    if (command == "explain")
        return cmdExplain(args);
    if (command == "roundtrip")
        return cmdRoundtrip(args);
    if (command == "bench")
        return cmdBench(args);
    if (command == "help" || command.empty()) {
        printUsage();
        return command.empty() ? 1 : 0;
    }
    warn("unknown command '", command, "'");
    printUsage();
    return 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace dnasim;

    if (argc < 2) {
        printUsage();
        return 1;
    }

    Args args(argc - 1, argv + 1);
    const std::string &command = args.positional().empty()
                                     ? std::string()
                                     : args.positional()[0];

    const std::string stats_out = args.get("stats-out");
    const std::string trace_out = args.get("trace-out");
    // Bare --progress is shorthand for --progress=auto.
    std::string progress_mode = args.get("progress", "auto");
    if (progress_mode.empty())
        progress_mode = "auto";
    const bool stats_text = args.has("stats");
    const bool profile = args.has("profile");

    try {
        checkFlags(args);
        par::setThreads(args.getCount("threads", 0, 0, par::kMaxThreads));

        // Resolve the SIMD tier up front: an invalid --simd fails
        // fast, and the resolution logs the one-time startup line
        // and publishes the align.simd.tier gauge before any work
        // runs.
        const std::string simd = args.get("simd", "auto");
        if (!applySimdOverride(simd.empty() ? "auto" : simd)) {
            DNASIM_FATAL("--simd must be auto, scalar, avx2 or avx512, "
                         "got '", simd, "'");
        }
        activeSimdTier();

        if (progress_mode != "auto" && progress_mode != "always" &&
            progress_mode != "never") {
            DNASIM_FATAL("--progress must be auto, always or never, "
                         "got '", progress_mode, "'");
        }
    } catch (const FatalError &e) {
        reportFatal(e);
        return 1;
    }
    const bool heartbeat =
        progress_mode == "always" ||
        (progress_mode == "auto" && obs::stderrIsTty());
    obs::setProgressHeartbeat(heartbeat);

    if (!trace_out.empty() || profile) {
        obs::Trace::global().enable();
        // A subcommand (or a dependency) may call std::exit or fail
        // after tracing started; the atexit hook still flushes a
        // loadable trace file in that case.
        if (!trace_out.empty())
            obs::Trace::global().setExitFlushPath(trace_out);
    }

    // One background sampler paints the stderr heartbeat and feeds
    // the phase profiler's RSS series (while tracing is on). The
    // profiler alone wants a fine cadence; the heartbeat sets a
    // coarser one.
    auto &sampler = obs::TelemetrySampler::global();
    if (heartbeat || profile) {
        sampler.start(heartbeat ? obs::kHeartbeatPeriodMs
                                : obs::kProfilePeriodMs);
    }
    if (!stats_out.empty())
        obs::startLogCapture();

    int rc = 1;
    try {
        auto &reg = obs::Registry::global();
        obs::Span span(
            command.empty() ? "help" : command.c_str(), "cli",
            reg.timer("cli." + command + ".time",
                      "wall time of the '" + command + "' command"));
        rc = dispatch(command, args);
    } catch (const FatalError &e) {
        // Still flush whatever stats and trace data accumulated
        // before the failure.
        reportFatal(e);
    }

    // Takes one final sample (so short runs still get one) and clears
    // the heartbeat line.
    sampler.stop();

    if (!stats_out.empty() || stats_text || !trace_out.empty() ||
        profile) {
        obs::Profile prof;
        if (profile)
            prof = obs::buildProfile(obs::Trace::global());
        obs::Snapshot snap = obs::Registry::global().snapshot();
        if (stats_text)
            std::cerr << obs::statsToText(snap);
        if (profile)
            std::cerr << obs::profileToText(prof);
        if (!stats_out.empty()) {
            if (obs::writeStatsJson(stats_out, snap,
                                    obs::capturedLog(),
                                    profile ? &prof : nullptr)) {
                inform("stats: wrote ", stats_out);
            } else {
                warn("stats: cannot write ", stats_out);
                rc = rc ? rc : 1;
            }
        }
        if (!trace_out.empty()) {
            if (obs::Trace::global().flushExitFile()) {
                inform("trace: wrote ", trace_out, " (",
                       obs::Trace::global().numEvents(),
                       " events)");
            } else {
                warn("trace: cannot write ", trace_out);
                rc = rc ? rc : 1;
            }
        }
    }
    return rc;
}
