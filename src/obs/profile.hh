/**
 * @file
 * The hierarchical phase profiler: aggregates the trace layer's
 * complete spans into an inclusive/exclusive call tree at snapshot
 * time, so a run can answer "which phase got slower" instead of only
 * "which spans existed".
 *
 * Nesting is recovered per thread from span intervals (RAII spans
 * are properly nested within a thread by construction); same-named
 * spans under the same parent merge into one node accumulating
 * count, wall (inclusive) time and thread CPU time. Exclusive time
 * is inclusive minus the children's inclusive time, so over a tree
 * the exclusive times sum to at most the synthetic root's inclusive
 * time (strictly less only where clock jitter forces clamping).
 *
 * While tracing is on, the telemetry sampler thread (obs/snapshot.hh)
 * appends a resident-set-size sample to the trace on every tick; at
 * build time each sample is attributed to every phase active at its
 * timestamp, giving per-phase RSS high-water marks.
 *
 * The profile is exported three ways: a "profile" section inside
 * dnasim.stats.v1 documents (obs/report.hh), the same section inside
 * BENCH_<name>.json, and a human-readable text tree behind the
 * --profile CLI/bench flag.
 */

#ifndef DNASIM_OBS_PROFILE_HH
#define DNASIM_OBS_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace dnasim
{
namespace obs
{

/** One aggregated phase (all spans with the same path). */
struct ProfileNode
{
    std::string name;
    uint64_t count = 0;    ///< span instances merged into this node
    uint64_t incl_ns = 0;  ///< wall time, children included
    uint64_t excl_ns = 0;  ///< wall time minus children (clamped >= 0)
    uint64_t cpu_ns = 0;   ///< thread CPU time inside the spans
    uint64_t rss_hwm_bytes = 0; ///< max sampled RSS while active
    std::vector<ProfileNode> children; ///< sorted by incl_ns desc
};

/** One flattened hot phase, ranked by exclusive time. */
struct ProfileHotspot
{
    std::string path; ///< "/"-joined names from the root
    uint64_t count = 0;
    uint64_t incl_ns = 0;
    uint64_t excl_ns = 0;
    uint64_t cpu_ns = 0;
};

/** An aggregated call tree plus its flattened hotspot ranking. */
struct Profile
{
    /**
     * Synthetic root named "total"; its inclusive time is the sum of
     * all top-level span durations across threads (> wall time when
     * several threads carry top-level spans).
     */
    ProfileNode root;
    std::vector<ProfileHotspot> hotspots; ///< top-N by excl_ns
    uint64_t rss_samples = 0; ///< RSS samples attributed (0 = none)

    bool
    empty() const
    {
        return root.children.empty();
    }
};

/**
 * Aggregate @p spans (plus optional RSS @p samples) into a profile.
 * @p top_n bounds the hotspot ranking.
 */
Profile buildProfile(const std::vector<TraceSpan> &spans,
                     const std::vector<RssSample> &samples = {},
                     size_t top_n = 10);

/** Convenience: build from a trace's spans and RSS samples. */
Profile buildProfile(const Trace &trace, size_t top_n = 10);

/** Render the call tree as an indented text table. */
std::string profileToText(const Profile &profile,
                          size_t max_depth = 8);

/** Render as the JSON object embedded under "profile" in stats.v1. */
std::string profileToJson(const Profile &profile);

/**
 * Current resident set size in bytes (VmRSS, falling back to the
 * getrusage high-water mark where /proc is unavailable; 0 when
 * neither source exists).
 */
uint64_t currentRssBytes();

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_PROFILE_HH
