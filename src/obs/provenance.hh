/**
 * @file
 * Build/run provenance stamped into every machine-readable artifact
 * (`dnasim.stats.v1`, `dnasim.bench.v1`, `dnasim.lineage.v1`,
 * checkpoint manifests): git revision, compiler, active SIMD tier
 * and worker-thread count, written by one function instead of
 * re-derived per schema.
 *
 * Layering: obs sits below the par and align libraries, so the
 * SIMD tier and thread count cannot be pulled from them here —
 * instead align/simd_dispatch and par/thread_pool push their
 * resolved values through the setters below. Until a producer
 * publishes, the fields read "unknown"/0 — a correct statement for
 * a process that never touched the corresponding subsystem.
 */

#ifndef DNASIM_OBS_PROVENANCE_HH
#define DNASIM_OBS_PROVENANCE_HH

#include <cstdint>
#include <string>

namespace dnasim
{
namespace obs
{

class JsonWriter;

/** The provenance block of one process. */
struct BuildProvenance
{
    std::string git_rev;   ///< short source revision or "unknown"
    std::string compiler;  ///< e.g. "gcc 13.2.0"
    std::string simd_tier; ///< "scalar"/"avx2"/"avx512"/"unknown"
    uint64_t threads = 0;  ///< configured worker threads (0 unset)
};

/**
 * Short git revision of the source tree (resolved once per process;
 * "unknown" outside a git checkout or when the build did not embed
 * the source path).
 */
std::string gitRevision();

/** Compiler id and version this binary was built with. */
std::string compilerVersion();

/**
 * Publish the resolved SIMD tier (called by align/simd_dispatch on
 * every batch dispatch, so this is hot-path cheap: one relaxed
 * store). @p tier must point to storage with static duration — the
 * dispatcher's tier-name literals qualify.
 */
void setProvenanceSimdTier(const char *tier);

/** Publish the worker-thread count (called by par/thread_pool). */
void setProvenanceThreads(uint64_t threads);

/** Snapshot the current provenance. */
BuildProvenance buildProvenance();

/**
 * Emit the provenance snapshot as an object member named @p key of
 * the writer's currently open object — the shared header block of
 * every artifact writer.
 */
void writeProvenance(JsonWriter &w, const char *key = "provenance");

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_PROVENANCE_HH
