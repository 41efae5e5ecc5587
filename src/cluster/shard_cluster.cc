#include "cluster/shard_cluster.hh"

#include <algorithm>
#include <numeric>

#include "base/logging.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace dnasim
{

std::vector<ReadCluster>
clusterReadsSharded(const StrandPoolView &view,
                    const ClusterOptions &options, size_t shards,
                    std::vector<ReadAssignment> *assignments)
{
    const size_t n = view.size();
    if (n == 0) {
        if (assignments != nullptr)
            assignments->clear();
        return {};
    }
    shards = std::clamp<size_t>(shards, 1, n);

    auto &reg = obs::Registry::global();
    static obs::Counter &stat_shards = reg.counter(
        "cluster.shard.passes", "per-shard clustering passes");
    static obs::Counter &stat_groups = reg.counter(
        "cluster.shard.groups",
        "shard-cluster groups unioned by the merge step");
    obs::Span span("cluster.sharded", "cluster");

    // Phase 1: cluster each contiguous segment independently. The
    // shard loop is serial on purpose — one shard's signatures and
    // sketch table in RAM at a time (the inner passes still
    // parallelize over reads) — and members come back as global pool
    // indices, so concatenation needs no remapping.
    std::vector<ReadCluster> all;
    std::vector<ReadAssignment> local_assign;
    const size_t per_shard = (n + shards - 1) / shards;
    for (size_t s = 0; s < shards; ++s) {
        const size_t lo = s * per_shard;
        if (lo >= n)
            break;
        const size_t len = std::min(per_shard, n - lo);
        stat_shards.inc();
        std::vector<ReadCluster> part = clusterReadsRange(
            view, lo, len, options,
            assignments != nullptr ? &local_assign : nullptr);
        if (assignments != nullptr) {
            if (s == 0)
                assignments->assign(n, ReadAssignment{});
            const size_t base = all.size();
            for (size_t i = 0; i < len; ++i) {
                ReadAssignment a = local_assign[i];
                a.cluster += static_cast<uint32_t>(base);
                (*assignments)[lo + i] = a;
            }
        }
        all.insert(all.end(),
                   std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    }

    // Phase 2: union the shard-cluster id spaces by clustering the
    // representatives with the same options — two shard clusters
    // merge exactly when a greedy probe would have joined their
    // representatives — then flatten each representative group into
    // one canonical cluster.
    std::vector<std::vector<size_t>> groups;
    if (shards == 1) {
        groups.resize(all.size());
        for (size_t j = 0; j < all.size(); ++j)
            groups[j] = {j};
    } else {
        obs::Span merge_span("cluster.shard.merge", "cluster");
        std::vector<Strand> reps;
        reps.reserve(all.size());
        for (const ReadCluster &c : all)
            reps.push_back(c.representative);
        std::vector<ReadCluster> rep_clusters =
            clusterReads(reps, options);
        groups.reserve(rep_clusters.size());
        for (ReadCluster &rc : rep_clusters)
            groups.push_back(std::move(rc.members));
    }
    stat_groups.add(groups.size());

    // Canonical final form: within a group the representative comes
    // from the constituent holding the globally smallest member,
    // members are sorted ascending, and the cluster list is ordered
    // by smallest member. Single-shard greedy output is already in
    // this form (members and creation order both ascend with read
    // order), so canonicalization never perturbs the S=1 result.
    std::vector<ReadCluster> merged;
    merged.reserve(groups.size());
    std::vector<uint32_t> all_to_merged(all.size(), 0);
    for (const std::vector<size_t> &group : groups) {
        ReadCluster out;
        size_t best_min = SIZE_MAX;
        size_t best_j = group.front();
        for (size_t j : group) {
            DNASIM_ASSERT(!all[j].members.empty(),
                          "empty shard cluster");
            out.members.insert(out.members.end(),
                               all[j].members.begin(),
                               all[j].members.end());
            if (all[j].members.front() < best_min) {
                best_min = all[j].members.front();
                best_j = j;
            }
        }
        std::sort(out.members.begin(), out.members.end());
        out.representative = std::move(all[best_j].representative);
        merged.push_back(std::move(out));
        for (size_t j : group)
            all_to_merged[j] =
                static_cast<uint32_t>(merged.size() - 1);
    }

    std::vector<size_t> order(merged.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return merged[a].members.front() < merged[b].members.front();
    });
    std::vector<uint32_t> rank(merged.size(), 0);
    std::vector<ReadCluster> final_clusters;
    final_clusters.reserve(merged.size());
    for (size_t r = 0; r < order.size(); ++r) {
        rank[order[r]] = static_cast<uint32_t>(r);
        final_clusters.push_back(std::move(merged[order[r]]));
    }

    if (assignments != nullptr) {
        for (ReadAssignment &a : *assignments)
            a.cluster = rank[all_to_merged[a.cluster]];
    }
    return final_clusters;
}

} // namespace dnasim
