#include "obs/profile.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "obs/json.hh"
#include "obs/report.hh"

namespace dnasim
{
namespace obs
{

namespace
{

/** Mutable aggregation node; converted to ProfileNode at the end. */
struct BuildNode
{
    std::string name;
    uint64_t count = 0;
    uint64_t incl_ns = 0;
    uint64_t cpu_ns = 0;
    uint64_t rss_hwm_bytes = 0;
    std::map<std::string, std::unique_ptr<BuildNode>> children;

    BuildNode &
    child(const std::string &child_name)
    {
        auto &slot = children[child_name];
        if (!slot) {
            slot = std::make_unique<BuildNode>();
            slot->name = child_name;
        }
        return *slot;
    }
};

/** One span instance resolved to its aggregation node. */
struct SpanInstance
{
    uint64_t ts_ns;
    uint64_t end_ns;
    BuildNode *node;
};

ProfileNode
finalize(const BuildNode &node)
{
    ProfileNode out;
    out.name = node.name;
    out.count = node.count;
    out.incl_ns = node.incl_ns;
    out.cpu_ns = node.cpu_ns;
    out.rss_hwm_bytes = node.rss_hwm_bytes;
    uint64_t children_incl = 0;
    for (const auto &[name, child] : node.children) {
        out.children.push_back(finalize(*child));
        children_incl += child->incl_ns;
    }
    // Clock jitter can make children appear to exceed the parent;
    // clamp so exclusive time never goes negative.
    out.excl_ns =
        node.incl_ns > children_incl ? node.incl_ns - children_incl : 0;
    std::sort(out.children.begin(), out.children.end(),
              [](const ProfileNode &a, const ProfileNode &b) {
                  return a.incl_ns > b.incl_ns;
              });
    return out;
}

void
collectHotspots(const ProfileNode &node, const std::string &prefix,
                std::vector<ProfileHotspot> &out)
{
    for (const auto &child : node.children) {
        std::string path =
            prefix.empty() ? child.name : prefix + "/" + child.name;
        out.push_back(ProfileHotspot{path, child.count, child.incl_ns,
                                     child.excl_ns, child.cpu_ns});
        collectHotspots(child, path, out);
    }
}

std::string
fmtBytes(uint64_t bytes)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    if (bytes >= 1ull << 30)
        os << static_cast<double>(bytes) / (1ull << 30) << " GiB";
    else if (bytes >= 1ull << 20)
        os << static_cast<double>(bytes) / (1ull << 20) << " MiB";
    else if (bytes >= 1ull << 10)
        os << static_cast<double>(bytes) / (1ull << 10) << " KiB";
    else
        os << bytes << " B";
    return os.str();
}

void
textNode(std::ostream &os, const ProfileNode &node, size_t depth,
         size_t max_depth)
{
    os << "  " << std::left << std::setw(44)
       << (std::string(2 * depth, ' ') + node.name) << std::right
       << " x" << std::setw(7) << node.count << "  incl "
       << std::setw(10) << fmtDurationNs(node.incl_ns) << "  excl "
       << std::setw(10) << fmtDurationNs(node.excl_ns);
    if (node.cpu_ns > 0)
        os << "  cpu " << std::setw(10) << fmtDurationNs(node.cpu_ns);
    if (node.rss_hwm_bytes > 0)
        os << "  rss " << fmtBytes(node.rss_hwm_bytes);
    os << "\n";
    if (depth + 1 >= max_depth && !node.children.empty()) {
        os << "  " << std::string(2 * (depth + 1), ' ') << "("
           << node.children.size() << " deeper phases elided)\n";
        return;
    }
    for (const auto &child : node.children)
        textNode(os, child, depth + 1, max_depth);
}

void
jsonNode(JsonWriter &w, const ProfileNode &node,
         const std::string &key)
{
    w.beginObject(key);
    w.value("name", node.name);
    w.value("count", node.count);
    w.value("incl_ns", node.incl_ns);
    w.value("excl_ns", node.excl_ns);
    w.value("cpu_ns", node.cpu_ns);
    w.value("rss_hwm_bytes", node.rss_hwm_bytes);
    if (!node.children.empty()) {
        w.beginArray("children");
        for (const auto &child : node.children)
            jsonNode(w, child, "");
        w.endArray();
    }
    w.endObject();
}

} // anonymous namespace

Profile
buildProfile(const std::vector<TraceSpan> &spans,
             const std::vector<RssSample> &samples, size_t top_n)
{
    BuildNode root;
    root.name = "total";

    // Recover nesting per thread: RAII spans are properly nested
    // within a thread, so sorting by (start, longest-first) puts
    // every parent before its children and an end-time stack
    // reconstructs the tree.
    std::map<uint32_t, std::vector<const TraceSpan *>> by_tid;
    for (const auto &span : spans)
        by_tid[span.tid].push_back(&span);

    std::vector<SpanInstance> instances;
    instances.reserve(spans.size());
    for (auto &[tid, tid_spans] : by_tid) {
        std::sort(tid_spans.begin(), tid_spans.end(),
                  [](const TraceSpan *a, const TraceSpan *b) {
                      if (a->ts_ns != b->ts_ns)
                          return a->ts_ns < b->ts_ns;
                      return a->dur_ns > b->dur_ns;
                  });
        struct Open
        {
            uint64_t end_ns;
            BuildNode *node;
        };
        std::vector<Open> stack;
        for (const TraceSpan *span : tid_spans) {
            while (!stack.empty() &&
                   span->ts_ns >= stack.back().end_ns)
                stack.pop_back();
            BuildNode &parent =
                stack.empty() ? root : *stack.back().node;
            BuildNode &node = parent.child(span->name);
            node.count += 1;
            node.incl_ns += span->dur_ns;
            node.cpu_ns += span->cpu_ns;
            if (stack.empty()) {
                root.count += 1;
                root.incl_ns += span->dur_ns;
                root.cpu_ns += span->cpu_ns;
            }
            uint64_t end_ns = span->ts_ns + span->dur_ns;
            instances.push_back(
                SpanInstance{span->ts_ns, end_ns, &node});
            stack.push_back(Open{end_ns, &node});
        }
    }

    // Attribute RSS samples: every phase active at a sample's
    // timestamp sees it, so each node's high-water mark is the max
    // RSS observed while any of its instances was open.
    std::vector<RssSample> sorted = samples;
    std::sort(sorted.begin(), sorted.end(),
              [](const RssSample &a, const RssSample &b) {
                  return a.ts_ns < b.ts_ns;
              });
    for (const auto &s : sorted)
        root.rss_hwm_bytes = std::max(root.rss_hwm_bytes, s.rss_bytes);
    for (const auto &inst : instances) {
        auto it = std::lower_bound(
            sorted.begin(), sorted.end(), inst.ts_ns,
            [](const RssSample &s, uint64_t ts) {
                return s.ts_ns < ts;
            });
        for (; it != sorted.end() && it->ts_ns < inst.end_ns; ++it) {
            inst.node->rss_hwm_bytes =
                std::max(inst.node->rss_hwm_bytes, it->rss_bytes);
        }
    }

    Profile profile;
    profile.root = finalize(root);
    profile.rss_samples = sorted.size();
    collectHotspots(profile.root, "", profile.hotspots);
    std::sort(profile.hotspots.begin(), profile.hotspots.end(),
              [](const ProfileHotspot &a, const ProfileHotspot &b) {
                  return a.excl_ns > b.excl_ns;
              });
    if (profile.hotspots.size() > top_n)
        profile.hotspots.resize(top_n);
    return profile;
}

Profile
buildProfile(const Trace &trace, size_t top_n)
{
    return buildProfile(trace.completeSpans(), trace.rssSamples(),
                        top_n);
}

std::string
profileToText(const Profile &profile, size_t max_depth)
{
    std::ostringstream os;
    if (profile.empty()) {
        os << "phase profile: no spans recorded (enable tracing "
              "with --profile or --trace-out)\n";
        return os.str();
    }
    os << "phase profile (total "
       << fmtDurationNs(profile.root.incl_ns) << " across "
       << profile.root.count << " top-level spans";
    if (profile.root.rss_hwm_bytes > 0)
        os << ", rss peak " << fmtBytes(profile.root.rss_hwm_bytes);
    os << "):\n";
    textNode(os, profile.root, 0, max_depth);
    if (!profile.hotspots.empty()) {
        os << "hotspots (by exclusive time):\n";
        for (const auto &h : profile.hotspots) {
            os << "  " << std::left << std::setw(44) << h.path
               << std::right << " x" << std::setw(7) << h.count
               << "  excl " << std::setw(10)
               << fmtDurationNs(h.excl_ns) << "  incl "
               << std::setw(10) << fmtDurationNs(h.incl_ns) << "\n";
        }
    }
    return os.str();
}

std::string
profileToJson(const Profile &profile)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.value("total_ns", profile.root.incl_ns);
    w.value("top_level_spans", profile.root.count);
    w.value("rss_samples", profile.rss_samples);
    w.value("rss_peak_bytes", profile.root.rss_hwm_bytes);
    w.beginArray("hotspots");
    for (const auto &h : profile.hotspots) {
        w.beginObject();
        w.value("path", h.path);
        w.value("count", h.count);
        w.value("incl_ns", h.incl_ns);
        w.value("excl_ns", h.excl_ns);
        w.value("cpu_ns", h.cpu_ns);
        w.endObject();
    }
    w.endArray();
    jsonNode(w, profile.root, "tree");
    w.endObject();
    return os.str();
}

namespace
{

/**
 * The one reader of /proc/self/status: @p field ("VmRSS" or
 * "VmHWM") in bytes, else getrusage's high-water mark, else 0.
 */
uint64_t
rssBytes(std::string_view field, std::string *source)
{
    if (source)
        *source = "none";
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.size() > field.size() && line.starts_with(field) &&
            line[field.size()] == ':') {
            unsigned long long kb = 0;
            std::sscanf(line.c_str() + field.size() + 1, "%llu", &kb);
            if (source)
                *source = "proc_status";
            return static_cast<uint64_t>(kb) * 1024;
        }
    }
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0 &&
        usage.ru_maxrss > 0) {
        if (source)
            *source = "getrusage";
        // ru_maxrss is KiB on Linux, bytes on macOS.
#if defined(__APPLE__)
        return static_cast<uint64_t>(usage.ru_maxrss);
#else
        return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
#endif
    }
#endif
    return 0;
}

} // anonymous namespace

uint64_t
currentRssBytes()
{
    return rssBytes("VmRSS", nullptr);
}

uint64_t
peakRssBytes(std::string *source)
{
    return rssBytes("VmHWM", source);
}

} // namespace obs
} // namespace dnasim
