#include "obs/progress.hh"

#include <algorithm>
#include <cstdio>
#include <list>
#include <mutex>
#include <sstream>

#ifdef _WIN32
#include <io.h>
#define DNASIM_ISATTY _isatty
#define DNASIM_FILENO _fileno
#else
#include <unistd.h>
#define DNASIM_ISATTY isatty
#define DNASIM_FILENO fileno
#endif

#include "obs/events.hh"

namespace dnasim
{
namespace obs
{

namespace
{

struct Board
{
    std::mutex mutex;
    std::list<detail::ProgressSlot> slots; ///< stable addresses
};

Board &
board()
{
    static Board *b = new Board();
    return *b;
}

std::atomic<bool> heartbeat_enabled{false};

/** Tracks whether a TTY status line is currently painted. */
std::mutex paint_mutex;
size_t painted_width = 0;

std::string
fmtCount(uint64_t n)
{
    char buf[32];
    if (n >= 10'000'000)
        std::snprintf(buf, sizeof(buf), "%.1fM",
                      static_cast<double>(n) / 1e6);
    else if (n >= 10'000)
        std::snprintf(buf, sizeof(buf), "%.1fk",
                      static_cast<double>(n) / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(n));
    return buf;
}

} // anonymous namespace

namespace detail
{

ProgressSlot *
openProgress(const char *name, uint64_t total)
{
    ProgressSlot *slot;
    {
        Board &b = board();
        std::lock_guard<std::mutex> lock(b.mutex);
        slot = &b.slots.emplace_back();
        slot->name = name;
        slot->total = total;
        slot->start_ns = monotonicNowNs();
    }
    emitEvent("phase_begin", name, {{"total", std::to_string(total)}});
    return slot;
}

void
closeProgress(ProgressSlot *slot)
{
    const char *name = slot->name;
    const uint64_t done = slot->done.load(std::memory_order_relaxed);
    const uint64_t dur = monotonicNowNs() - slot->start_ns;
    {
        Board &b = board();
        std::lock_guard<std::mutex> lock(b.mutex);
        b.slots.remove_if(
            [&](const ProgressSlot &open) { return &open == slot; });
    }
    emitEvent("phase_end", name,
              {{"done", std::to_string(done)},
               {"duration_ns", std::to_string(dur)}});
}

} // namespace detail

std::vector<ProgressState>
progressSnapshot()
{
    Board &b = board();
    std::lock_guard<std::mutex> lock(b.mutex);
    std::vector<ProgressState> out;
    out.reserve(b.slots.size());
    for (const auto &slot : b.slots) {
        ProgressState s;
        s.name = slot.name;
        s.done = slot.done.load(std::memory_order_relaxed);
        s.total = slot.total;
        s.start_ns = slot.start_ns;
        out.push_back(std::move(s));
    }
    return out;
}

std::string
renderProgressLine(const std::vector<ProgressState> &states,
                   uint64_t now_ns, uint64_t rss_bytes)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &s : states) {
        if (!first)
            os << " · ";
        first = false;
        os << s.name << " " << fmtCount(s.done);
        if (s.total > 0) {
            double pct = 100.0 * static_cast<double>(s.done) /
                         static_cast<double>(s.total);
            char buf[48];
            std::snprintf(buf, sizeof(buf), "/%s (%.1f%%)",
                          fmtCount(s.total).c_str(), pct);
            os << buf;
        }
        uint64_t elapsed =
            now_ns > s.start_ns ? now_ns - s.start_ns : 0;
        if (elapsed > 0 && s.done > 0) {
            double per_sec = static_cast<double>(s.done) * 1e9 /
                             static_cast<double>(elapsed);
            os << " "
               << fmtCount(static_cast<uint64_t>(per_sec)) << "/s";
        }
    }
    if (rss_bytes > 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " · rss %.0f MB",
                      static_cast<double>(rss_bytes) / (1024.0 * 1024.0));
        os << buf;
    }
    return os.str();
}

bool
progressHeartbeatEnabled()
{
    return heartbeat_enabled.load(std::memory_order_relaxed);
}

void
setProgressHeartbeat(bool enabled)
{
    heartbeat_enabled.store(enabled, std::memory_order_relaxed);
}

bool
stderrIsTty()
{
    return DNASIM_ISATTY(DNASIM_FILENO(stderr)) != 0;
}

void
paintProgressHeartbeat(uint64_t rss_bytes)
{
    if (!progressHeartbeatEnabled())
        return;
    std::vector<ProgressState> states = progressSnapshot();
    if (states.empty())
        return;
    std::string line =
        renderProgressLine(states, monotonicNowNs(), rss_bytes);
    std::lock_guard<std::mutex> lock(paint_mutex);
    if (stderrIsTty()) {
        // Repaint in place, blank-padding over the previous line.
        std::string pad;
        if (line.size() < painted_width)
            pad.assign(painted_width - line.size(), ' ');
        std::fprintf(stderr, "\r%s%s", line.c_str(), pad.c_str());
        std::fflush(stderr);
        painted_width = std::max(painted_width, line.size());
    } else {
        std::fprintf(stderr, "progress: %s\n", line.c_str());
    }
}

void
clearProgressHeartbeat()
{
    std::lock_guard<std::mutex> lock(paint_mutex);
    if (painted_width > 0 && stderrIsTty()) {
        std::string pad(painted_width, ' ');
        std::fprintf(stderr, "\r%s\r", pad.c_str());
        std::fflush(stderr);
    }
    painted_width = 0;
}

} // namespace obs
} // namespace dnasim
