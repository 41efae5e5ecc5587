#include "cluster/greedy_cluster.hh"

#include <algorithm>
#include <span>
#include <string_view>
#include <unordered_map>

#include "align/edit_distance.hh"
#include "align/myers_batch.hh"
#include "base/logging.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace dnasim
{

namespace
{

/**
 * Transparent hash so the anchor buckets can be probed with a
 * string_view into the read — the hot path used to build one
 * std::string key per probe, a per-read allocation.
 */
struct AnchorHash
{
    using is_transparent = void;

    size_t
    operator()(std::string_view s) const
    {
        return std::hash<std::string_view>{}(s);
    }
};

/**
 * Candidate-verification batch sizes. The first chunk is one AVX2
 * lane group, so the common accept-at-the-front probe stays nearly
 * as cheap as a one-at-a-time early exit; deeper scans switch to
 * full 16-candidate chunks that keep 4- and 8-wide kernels
 * saturated. The schedule is fixed — independent of thread count
 * and SIMD tier — so probe order, and therefore the clustering,
 * never varies with either.
 */
constexpr size_t kFirstProbeChunk = 4;
constexpr size_t kProbeChunk = 16;

} // anonymous namespace

const char *
assignmentTierName(AssignmentTier tier)
{
    switch (tier) {
      case AssignmentTier::Fresh: return "fresh";
      case AssignmentTier::Anchor: return "anchor";
      case AssignmentTier::Sketch: return "sketch";
    }
    return "?";
}

std::vector<ReadCluster>
clusterReads(const std::vector<Strand> &reads,
             const ClusterOptions &options,
             std::vector<ReadAssignment> *assignments)
{
    return clusterReadsRange(StrandPoolView(reads), 0, reads.size(),
                             options, assignments);
}

std::vector<ReadCluster>
clusterReadsRange(const StrandPoolView &view, size_t offset,
                  size_t count, const ClusterOptions &options,
                  std::vector<ReadAssignment> *assignments)
{
    DNASIM_ASSERT(options.anchor_length > 0, "zero anchor length");
    DNASIM_ASSERT(offset + count <= view.size(),
                  "cluster range out of pool bounds");

    auto &reg = obs::Registry::global();
    static obs::Counter &stat_reads = reg.counter(
        "cluster.reads", "reads processed by greedy clustering");
    static obs::Counter &stat_comparisons = reg.counter(
        "cluster.comparisons",
        "read-to-representative edit-distance comparisons");
    static obs::Counter &stat_merges = reg.counter(
        "cluster.merges", "reads merged into an existing cluster");
    static obs::Counter &stat_created = reg.counter(
        "cluster.created", "fresh clusters opened");
    static obs::Timer &stat_time =
        reg.timer("cluster.time", "wall time in clusterReads()");
    static obs::Counter &stat_sk_bands = reg.counter(
        "cluster.sketch.bands_probed",
        "LSH band-bucket lookups by the sketch tier");
    static obs::Counter &stat_sk_collisions = reg.counter(
        "cluster.sketch.collisions",
        "cluster ids scanned in colliding band buckets");
    static obs::Counter &stat_sk_candidates = reg.counter(
        "cluster.sketch.candidates",
        "deduped sketch candidates emitted into probe lists");
    static obs::Counter &stat_sk_probes = reg.counter(
        "cluster.sketch.probes",
        "sketch candidates verified with the edit-distance gate");
    static obs::Counter &stat_sk_verified = reg.counter(
        "cluster.sketch.verified",
        "placements won by a sketch-tier candidate (probes minus "
        "verified over probes is the sketch false-positive rate)");
    static obs::Counter &stat_sk_empty = reg.counter(
        "cluster.sketch.empty_signatures",
        "reads with no sketchable k-mer (short or non-ACGT)");
    obs::Span span("cluster.sketch", "cluster", stat_time, count);
    uint64_t comparisons = 0;
    uint64_t sketch_probes = 0;
    uint64_t sketch_verified = 0;

    std::vector<ReadCluster> clusters;
    // One Myers pattern per *read*, probed against every candidate
    // representative through the batch kernel (one representative
    // per SIMD lane). Levenshtein is symmetric, so flipping the old
    // representative-as-pattern orientation changes no accept/reject
    // decision — and it lets a read's whole candidate list share one
    // pattern, where per-representative patterns could only serve
    // one text at a time. The pattern storage is reused across
    // reads (assign()), so the swap also drops the old
    // pattern-per-cluster cache and its O(clusters) memory.
    MyersPattern read_pattern;
    // anchor -> cluster indices whose representative starts with it.
    // string_view-keyed heterogeneous lookup: probing never copies
    // the anchor; only bucket creation materializes the key.
    std::unordered_map<std::string, std::vector<size_t>, AnchorHash,
                       std::equal_to<>>
        buckets;
    // Signatures for the whole range up front (parallel, order
    // preserving); the band index itself fills in as clusters open.
    SketchIndex sketch(view, offset, count, options.sketch);

    auto anchor_of = [&](std::string_view s) -> std::string_view {
        return s.substr(0, std::min(options.anchor_length, s.size()));
    };

    std::vector<size_t> candidates;
    std::vector<size_t> sketch_candidates;
    std::vector<size_t> distances;
    std::vector<std::string_view> rep_texts;
    // Epoch-stamped dedup across the probe tiers: the sketch tier
    // skips clusters the anchor tier already proposed.
    EpochSeen seen;

    // Probe a candidate list in order; the first representative
    // within the threshold wins. Candidates are verified by the
    // batch Myers kernel — the read's pattern against one
    // representative per SIMD lane — in fixed-size chunks, and the
    // winner is selected by candidate order. Probes use the
    // thresholded kernel: a probe's exact distance above the
    // threshold is irrelevant, so each lane abandons its text as
    // soon as the bound is certified. Placement decisions — and
    // therefore the clustering — are byte-identical at any thread
    // count and on every SIMD tier. probed reports how many
    // candidates were dispatched for verification (whole chunks).
    auto probe_list = [&](const std::vector<size_t> &cand,
                          size_t &probed) -> size_t {
        const size_t count = cand.size();
        probed = count;
        if (count == 0)
            return 0;
        rep_texts.resize(count);
        for (size_t k = 0; k < count; ++k)
            rep_texts[k] = clusters[cand[k]].representative;
        std::span<const std::string_view> texts{rep_texts};

        distances.resize(count);
        std::span<size_t> dists{distances};
        size_t lo = 0;
        size_t chunk = kFirstProbeChunk;
        while (lo < count) {
            const size_t len = std::min(chunk, count - lo);
            myersBatchDistanceBounded(read_pattern,
                                      texts.subspan(lo, len),
                                      options.distance_threshold,
                                      dists.subspan(lo, len));
            comparisons += len;
            for (size_t k = lo; k < lo + len; ++k) {
                if (distances[k] <= options.distance_threshold) {
                    probed = lo + len;
                    return k;
                }
            }
            lo += len;
            chunk = kProbeChunk;
        }
        return count;
    };

    if (assignments != nullptr)
        assignments->assign(count, ReadAssignment{});

    // Strand materialization scratch: vector-backed views return
    // zero-copy references into the backing store, pool-backed views
    // unpack only the strand under the cursor into this buffer —
    // which is what keeps clustering RSS independent of pool size.
    Strand read_scratch;
    for (size_t i = 0; i < count; ++i) {
        const std::string_view read =
            view.chars(offset + i, read_scratch);
        span.advance();
        read_pattern.assign(read);

        // Tier 1: candidate clusters sharing the anchor prefix.
        seen.begin(clusters.size());
        candidates.clear();
        auto it = buckets.find(anchor_of(read));
        if (it != buckets.end()) {
            candidates = it->second;
            for (size_t c : candidates)
                seen.set(c);
        }
        if (candidates.size() > options.max_probes)
            candidates.resize(options.max_probes);

        size_t probed = 0;
        size_t pos = probe_list(candidates, probed);
        size_t placed_in = pos < candidates.size() ? candidates[pos]
                                                   : clusters.size();
        // Snapshot the winner's exact distance now: the distances
        // buffer is reused by the next probe_list call.
        AssignmentTier tier = AssignmentTier::Fresh;
        size_t verified_distance = 0;
        if (pos < candidates.size()) {
            tier = AssignmentTier::Anchor;
            verified_distance = distances[pos];
        }

        // Tier 2, only when the anchor tier rejected (the common
        // accept path never pays a band probe): MinHash band
        // collisions ranked by collision count then cluster id.
        if (placed_in == clusters.size()) {
            sketch_candidates.clear();
            sketch.appendCandidates(i, seen, options.max_probes,
                                    sketch_candidates);
            size_t sprobed = 0;
            size_t spos = probe_list(sketch_candidates, sprobed);
            sketch_probes += sprobed;
            probed += sprobed;
            if (spos < sketch_candidates.size()) {
                placed_in = sketch_candidates[spos];
                tier = AssignmentTier::Sketch;
                verified_distance = distances[spos];
                ++sketch_verified;
            }
        }

        if (assignments != nullptr) {
            auto &a = (*assignments)[i];
            a.cluster = static_cast<uint32_t>(
                placed_in == clusters.size() ? clusters.size()
                                             : placed_in);
            a.tier = tier;
            a.verified_distance =
                static_cast<uint32_t>(verified_distance);
            a.candidates_probed = static_cast<uint32_t>(probed);
        }

        if (placed_in == clusters.size()) {
            ReadCluster fresh;
            fresh.members.push_back(offset + i);
            fresh.representative = Strand(read);
            clusters.push_back(std::move(fresh));
            auto bucket = buckets.find(anchor_of(read));
            if (bucket == buckets.end()) {
                bucket = buckets
                             .emplace(std::string(anchor_of(read)),
                                      std::vector<size_t>())
                             .first;
            }
            bucket->second.push_back(clusters.size() - 1);
            sketch.addCluster(i, clusters.size() - 1);
            stat_created.inc();
        } else {
            clusters[placed_in].members.push_back(offset + i);
            stat_merges.inc();
        }
    }
    stat_reads.add(count);
    stat_comparisons.add(comparisons);
    const SketchCounters &sc = sketch.counters();
    stat_sk_bands.add(sc.bands_probed);
    stat_sk_collisions.add(sc.collisions);
    stat_sk_candidates.add(sc.candidates);
    stat_sk_probes.add(sketch_probes);
    stat_sk_verified.add(sketch_verified);
    stat_sk_empty.add(sc.empty_signatures);
    return clusters;
}

ClusterPurity
scoreClustering(const std::vector<ReadCluster> &clusters,
                const std::vector<size_t> &origins)
{
    ClusterPurity purity;
    purity.num_clusters = clusters.size();
    std::vector<size_t> scratch;
    for (const auto &cluster : clusters) {
        scratch.clear();
        for (size_t member : cluster.members) {
            DNASIM_ASSERT(member < origins.size(),
                          "read index out of range");
            scratch.push_back(origins[member]);
        }
        const size_t majority_origin = majorityOrigin(scratch);
        for (size_t member : cluster.members) {
            ++purity.num_reads;
            if (origins[member] == majority_origin)
                ++purity.correctly_clustered;
        }
    }
    return purity;
}

size_t
majorityOrigin(std::vector<size_t> &origins)
{
    // The longest run of the sorted origins, first (= smallest) on
    // ties, without a map node per distinct origin.
    std::sort(origins.begin(), origins.end());
    size_t majority = 0;
    size_t best = 0;
    for (size_t lo = 0; lo < origins.size();) {
        size_t hi = lo;
        while (hi < origins.size() && origins[hi] == origins[lo])
            ++hi;
        if (hi - lo > best) {
            best = hi - lo;
            majority = origins[lo];
        }
        lo = hi;
    }
    return majority;
}

} // namespace dnasim
