#include "cluster/greedy_cluster.hh"

#include <algorithm>
#include <array>
#include <span>
#include <string_view>
#include <unordered_map>

#include "align/edit_distance.hh"
#include "align/myers_batch.hh"
#include "base/logging.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"

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
 * and SIMD tier — and it defines candidates_probed and
 * cluster.comparisons: a placement counts every candidate of the
 * chunk that held its winner.
 */
constexpr size_t kFirstProbeChunk = 4;
constexpr size_t kProbeChunk = 16;

/// A candidate distance not computed yet.
constexpr size_t kUnverified = SIZE_MAX;

/**
 * Probe @p n candidates in the fixed chunk schedule; the first one
 * within @p threshold wins. @p dist holds each candidate's distance,
 * or kUnverified. Each chunk verifies, in one batch kernel call, the
 * unverified candidates ahead of its first known winner: the read's
 * pattern against one representative (@p rep of the candidate's
 * position) per SIMD lane, each lane abandoning its text once the
 * bound is certified. Returns the winner's position (n if none) and
 * sets @p probed to the end of its chunk, or to n.
 */
template <typename Rep>
size_t
probeCandidates(const MyersPattern &pattern, size_t n, Rep rep,
                size_t threshold, size_t *dist, size_t &probed)
{
    auto wins = [&](size_t k) {
        return dist[k] != kUnverified && dist[k] <= threshold;
    };
    size_t lo = 0;
    size_t chunk = kFirstProbeChunk;
    while (lo < n) {
        const size_t hi = std::min(lo + chunk, n);
        size_t stop = lo;
        while (stop < hi && !wins(stop))
            ++stop;
        std::array<std::string_view, kProbeChunk> texts{};
        std::array<size_t, kProbeChunk> at{};
        std::array<size_t, kProbeChunk> out{};
        size_t m = 0;
        for (size_t k = lo; k < stop; ++k) {
            if (dist[k] == kUnverified) {
                at[m] = k;
                texts[m++] = rep(k);
            }
        }
        if (m > 0) {
            myersBatchDistanceBounded(pattern, {texts.data(), m},
                                      threshold, {out.data(), m});
            for (size_t j = 0; j < m; ++j)
                dist[at[j]] = out[j];
        }
        for (size_t k = lo; k <= stop && k < hi; ++k) {
            if (wins(k)) {
                probed = hi;
                return k;
            }
        }
        lo = hi;
        chunk = kProbeChunk;
    }
    probed = n;
    return n;
}

/**
 * One read of a block: its pattern, and what it learned from the
 * clusters that existed when the block started (the "old" ones).
 */
struct Proposal
{
    Strand scratch; ///< the read's characters, for pool-backed views
    std::string_view read;
    MyersPattern pattern;
    /// Old clusters in the read's anchor bucket at block start.
    size_t anchor_old = 0;
    /// Distances to the bucket's first min(anchor_old, max_probes)
    /// members, verified through the chunk of the first winner.
    std::vector<size_t> anchor_dist;
    /// Band collisions with old clusters, their ranked candidates
    /// (the read's anchor bucket excluded) and distances to them.
    size_t old_collisions = 0;
    std::vector<SketchCandidate> sketch;
    std::vector<size_t> sketch_dist;
    std::vector<uint32_t> rank_scratch;
};

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
        "reads shorter than the k-mer (no signature)");
    obs::Span span("cluster.sketch", "cluster", stat_time, count);
    uint64_t comparisons = 0;
    uint64_t merges = 0;
    uint64_t bands_probed = 0;
    uint64_t collisions = 0;
    uint64_t sketch_candidates = 0;
    uint64_t sketch_probes = 0;
    uint64_t sketch_verified = 0;

    const size_t threshold = options.distance_threshold;
    const size_t max_probes = options.max_probes;
    std::vector<ReadCluster> clusters;
    // anchor -> ids of the clusters whose representative starts with
    // it, ascending. string_view-keyed heterogeneous lookup: probing
    // never copies the anchor; only bucket creation materializes the
    // key.
    std::unordered_map<std::string, std::vector<size_t>, AnchorHash,
                       std::equal_to<>>
        buckets;
    // Signatures for the whole range up front (parallel, order
    // preserving); the band index fills in block by block.
    SketchIndex sketch(view, offset, count, options.sketch);

    auto anchor_of = [&](std::string_view s) -> std::string_view {
        return s.substr(0, std::min(options.anchor_length, s.size()));
    };
    auto bucket_of = [&](std::string_view read) {
        auto it = buckets.find(anchor_of(read));
        return it == buckets.end() ? std::span<const size_t>()
                                   : std::span<const size_t>(it->second);
    };

    // Load read i into @p p: its characters and its Myers pattern —
    // one per *read*, probed against every candidate representative
    // through the batch kernel (Levenshtein is symmetric).
    auto load = [&](size_t i, Proposal &p) {
        p.read = view.chars(offset + i, p.scratch);
        p.pattern.assign(p.read);
        p.anchor_old = 0;
        p.anchor_dist.clear();
        p.old_collisions = 0;
        p.sketch.clear();
        p.sketch_dist.clear();
    };
    // Propose: load read i and probe the clusters opened before its
    // block. Reads the buckets, the published sketch table and the
    // cluster list, and writes only @p p, so a block's reads propose
    // in parallel.
    auto propose = [&](size_t i, Proposal &p) {
        load(i, p);
        const std::span<const size_t> bucket = bucket_of(p.read);
        p.anchor_old = bucket.size();
        p.anchor_dist.assign(std::min(bucket.size(), max_probes),
                             kUnverified);
        size_t probed = 0;
        if (probeCandidates(
                p.pattern, p.anchor_dist.size(),
                [&](size_t k) -> std::string_view {
                    return clusters[bucket[k]].representative;
                },
                threshold, p.anchor_dist.data(),
                probed) < p.anchor_dist.size())
            return; // no cluster opened later can outrank this one
        p.old_collisions = sketch.rankCandidates(
            SketchIndex::Clusters::Published, i, bucket, max_probes,
            p.sketch, p.rank_scratch);
        p.sketch_dist.assign(p.sketch.size(), kUnverified);
        probeCandidates(
            p.pattern, p.sketch.size(),
            [&](size_t k) -> std::string_view {
                return clusters[p.sketch[k].id].representative;
            },
            threshold, p.sketch_dist.data(), probed);
    };
    std::vector<Proposal> proposals;
    // The read under commit in a block that starts with no clusters:
    // there is nothing to propose against, so it is only loaded.
    Proposal loaded;

    // Commit scratch: the candidate lists of one read, as the serial
    // greedy loop would build them, with what the proposal verified.
    std::vector<size_t> probe_ids;
    std::vector<size_t> probe_dist;
    std::vector<SketchCandidate> fresh;
    std::vector<uint32_t> rank_scratch;
    auto probe = [&](const MyersPattern &pattern, size_t &probed) {
        return probeCandidates(
            pattern, probe_ids.size(),
            [&](size_t k) -> std::string_view {
                return clusters[probe_ids[k]].representative;
            },
            threshold, probe_dist.data(), probed);
    };

    if (assignments != nullptr)
        assignments->assign(count, ReadAssignment{});

    for (size_t block = 0; block < count; block += kClusterBlockReads) {
        const size_t n = std::min(kClusterBlockReads, count - block);
        const bool proposed = !clusters.empty();
        if (proposed) {
            obs::Span propose_span("cluster.sketch.propose", "cluster");
            proposals.resize(std::max(proposals.size(), n));
            par::parallelFor(
                0, n,
                [&](size_t j) { propose(block + j, proposals[j]); },
                /*grain=*/8);
        }

        // Commit, serially in read order: replay the greedy loop's
        // decisions. A cluster opened inside the block has a larger
        // id than every old one, so in an anchor bucket it sorts
        // after them, and in the sketch ranking it loses every tie
        // in hits to them. Verify only what the proposal did not,
        // and count comparisons and probes by the chunk schedule
        // over the lists the serial loop would have built.
        obs::Span commit_span("cluster.sketch.commit", "cluster");
        for (size_t j = 0; j < n; ++j) {
            const size_t i = block + j;
            Proposal &p = proposed ? proposals[j] : loaded;
            if (!proposed)
                load(i, p);
            span.advance();

            // Tier 1: the anchor bucket — old members first, then
            // those opened earlier in this block.
            const std::span<const size_t> bucket = bucket_of(p.read);
            const std::span<const size_t> head =
                bucket.first(std::min(bucket.size(), max_probes));
            probe_ids.assign(head.begin(), head.end());
            probe_dist.assign(probe_ids.size(), kUnverified);
            std::copy(p.anchor_dist.begin(), p.anchor_dist.end(),
                      probe_dist.begin());
            size_t probed = 0;
            const size_t pos = probe(p.pattern, probed);
            comparisons += probed;
            size_t placed_in = clusters.size();
            AssignmentTier tier = AssignmentTier::Fresh;
            size_t verified_distance = 0;
            if (pos < probe_ids.size()) {
                placed_in = probe_ids[pos];
                tier = AssignmentTier::Anchor;
                verified_distance = probe_dist[pos];
            }

            // Tier 2, only when the anchor tier rejected (the common
            // accept path never pays a band probe): the old and the
            // in-block band collisions, merged by (hits desc, id
            // asc) and cut at max_probes. An old candidate keeps its
            // proposal-order distance.
            if (placed_in == clusters.size() && sketch.hasSignature(i) &&
                max_probes > 0) {
                bands_probed += options.sketch.num_bands;
                collisions +=
                    p.old_collisions +
                    sketch.rankCandidates(
                        SketchIndex::Clusters::Staged, i,
                        bucket.subspan(p.anchor_old), max_probes, fresh,
                        rank_scratch);
                probe_ids.clear();
                probe_dist.clear();
                size_t a = 0;
                size_t b = 0;
                while (probe_ids.size() < max_probes &&
                       (a < p.sketch.size() || b < fresh.size())) {
                    const bool take_old =
                        b == fresh.size() ||
                        (a < p.sketch.size() &&
                         rankedBefore(p.sketch[a], fresh[b]));
                    if (take_old) {
                        probe_ids.push_back(p.sketch[a].id);
                        probe_dist.push_back(p.sketch_dist[a]);
                        ++a;
                    } else {
                        probe_ids.push_back(fresh[b].id);
                        probe_dist.push_back(kUnverified);
                        ++b;
                    }
                }
                sketch_candidates += probe_ids.size();
                size_t sprobed = 0;
                const size_t spos = probe(p.pattern, sprobed);
                comparisons += sprobed;
                sketch_probes += sprobed;
                probed += sprobed;
                if (spos < probe_ids.size()) {
                    placed_in = probe_ids[spos];
                    tier = AssignmentTier::Sketch;
                    verified_distance = probe_dist[spos];
                    ++sketch_verified;
                }
            }

            if (assignments != nullptr) {
                auto &a = (*assignments)[i];
                a.cluster = static_cast<uint32_t>(placed_in);
                a.tier = tier;
                a.verified_distance =
                    static_cast<uint32_t>(verified_distance);
                a.candidates_probed = static_cast<uint32_t>(probed);
            }

            if (placed_in == clusters.size()) {
                ReadCluster opened;
                opened.members.push_back(offset + i);
                opened.representative = Strand(p.read);
                clusters.push_back(std::move(opened));
                auto it = buckets.find(anchor_of(p.read));
                if (it == buckets.end()) {
                    it = buckets
                             .emplace(std::string(anchor_of(p.read)),
                                      std::vector<size_t>())
                             .first;
                }
                it->second.push_back(placed_in);
                sketch.addCluster(i, placed_in);
            } else {
                clusters[placed_in].members.push_back(offset + i);
                ++merges;
            }
        }
        if (block + n < count)
            sketch.publish();
    }
    stat_reads.add(count);
    stat_comparisons.add(comparisons);
    stat_merges.add(merges);
    stat_created.add(clusters.size());
    stat_sk_bands.add(bands_probed);
    stat_sk_collisions.add(collisions);
    stat_sk_candidates.add(sketch_candidates);
    stat_sk_probes.add(sketch_probes);
    stat_sk_verified.add(sketch_verified);
    stat_sk_empty.add(sketch.emptySignatures());
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
