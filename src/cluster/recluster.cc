#include "cluster/recluster.hh"

#include <numeric>

#include "cluster/shard_cluster.hh"

namespace dnasim
{

Dataset
ReclusteredPool::regrouped() &&
{
    // The clusters partition the pool, so each read moves once.
    Dataset out;
    out.clusters().reserve(clusters.size());
    for (const ReadCluster &rc : clusters) {
        Cluster c;
        c.reference = rc.representative;
        c.copies.reserve(rc.members.size());
        for (size_t m : rc.members)
            c.copies.push_back(std::move(pool[m]));
        out.add(std::move(c));
    }
    pool.clear();
    return out;
}

ReclusteredPool
poolAndRecluster(Dataset data, const ClusterOptions &options, Rng &rng,
                 bool with_identity,
                 std::vector<ReadAssignment> *assignments,
                 size_t max_reads, size_t shards)
{
    // Shuffle a permutation so identities can follow their reads.
    std::vector<Strand> reads;
    reads.reserve(data.totalCopies());
    for (Cluster &c : data.clusters())
        for (Strand &copy : c.copies)
            reads.push_back(std::move(copy));
    std::vector<size_t> perm(reads.size());
    std::iota(perm.begin(), perm.end(), size_t{0});
    rng.shuffle(perm);
    if (max_reads > 0 && max_reads < perm.size())
        perm.resize(max_reads);

    std::vector<ReadIdentity> ids;
    if (with_identity) {
        for (uint32_t i = 0; i < data.size(); ++i)
            for (uint32_t k = 0; k < data[i].copies.size(); ++k)
                ids.push_back({i, k});
    }
    ReclusteredPool out;
    out.pool.reserve(perm.size());
    for (size_t r : perm) {
        out.pool.push_back(std::move(reads[r]));
        if (with_identity)
            out.identity.push_back(ids[r]);
    }
    out.clusters =
        shards == 0
            ? clusterReads(out.pool, options, assignments)
            : clusterReadsSharded(StrandPoolView(out.pool), options,
                                  shards, assignments);
    return out;
}

} // namespace dnasim
