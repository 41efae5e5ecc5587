/**
 * @file
 * Progress heartbeats for long-running loops.
 *
 * A counted obs::Span (obs/trace.hh) is one logical phase under the
 * span's own name (channel.simulate, cluster.sketch,
 * pipeline.retrieve, analysis.reconstructAll, ...): it registers the
 * phase with the global progress board, the loop calls
 * Span::advance() as items complete, and the live stderr status
 * line, painted by the sampler thread (obs/snapshot.hh), reads
 * items-done/items-total without ever touching the loop.
 *
 * advance() is one relaxed atomic add, cheap enough for per-cluster
 * or per-read granularity (not per-base). Phases nest; the board
 * lists active phases in opening order.
 *
 * The stderr heartbeat is TTY-aware: when enabled it repaints one
 * carriage-returned status line on a real terminal and prints plain
 * newline-terminated lines otherwise (so logs stay greppable).
 * Everything goes to stderr; stdout and all data outputs remain
 * byte-identical with progress enabled.
 */

#ifndef DNASIM_OBS_PROGRESS_HH
#define DNASIM_OBS_PROGRESS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dnasim
{
namespace obs
{

/** Point-in-time view of one active phase. */
struct ProgressState
{
    std::string name;
    uint64_t done = 0;
    uint64_t total = 0;   ///< 0 = unknown / open-ended
    uint64_t start_ns = 0; ///< progress-clock ns at phase open
};

namespace detail
{

/** Live state of one open phase, owned by the progress board. */
struct ProgressSlot
{
    const char *name = "";
    std::atomic<uint64_t> done{0};
    uint64_t total = 0;
    uint64_t start_ns = 0;
};

/**
 * Register a phase named @p name (which must outlive it) expecting
 * @p total items. Span's counted constructors call this; the slot
 * stays valid until closeProgress.
 */
ProgressSlot *openProgress(const char *name, uint64_t total);

/** Drop @p slot from the board. */
void closeProgress(ProgressSlot *slot);

} // namespace detail

/** Active phases, oldest first (empty when no phase is running). */
std::vector<ProgressState> progressSnapshot();

/**
 * Render @p states as one human status line, e.g.
 * "channel.simulate 1200/5000 (24.0%) 38.1k/s · cluster.sketch
 * 10/..". @p now_ns is the current time on the progress clock
 * that stamped start_ns, for the rates.
 */
std::string renderProgressLine(const std::vector<ProgressState> &states,
                               uint64_t now_ns,
                               uint64_t rss_bytes = 0);

/**
 * Whether the stderr heartbeat is enabled. The CLI sets this from
 * --progress {auto,always,never}; "auto" resolves to stderr-is-a-TTY.
 */
bool progressHeartbeatEnabled();
void setProgressHeartbeat(bool enabled);

/** True when stderr is an interactive terminal. */
bool stderrIsTty();

/**
 * Paint the heartbeat for the current board state onto stderr (no-op
 * when disabled or no scope is active). Called by the sampler each
 * tick; safe from any thread.
 */
void paintProgressHeartbeat(uint64_t rss_bytes);

/** Erase a previously painted TTY status line (end of run). */
void clearProgressHeartbeat();

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_PROGRESS_HH
