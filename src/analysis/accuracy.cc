#include "analysis/accuracy.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/progress.hh"
#include "par/thread_pool.hh"

namespace dnasim
{

std::vector<Strand>
reconstructAll(const Dataset &data, const Reconstructor &algo,
               Rng &rng)
{
    // Per-cluster streams forked by index keep the estimates
    // identical to the serial run for any thread count.
    obs::ProgressScope progress("reconstruct", data.size());
    return par::parallelTransform(data.size(), [&](size_t i) {
        Rng cluster_rng = rng.fork(i);
        auto estimate = algo.reconstruct(
            data[i].copies, data[i].reference.size(), cluster_rng);
        progress.advance();
        return estimate;
    });
}

AccuracyResult
scoreReconstructions(const Dataset &data,
                     const std::vector<Strand> &estimates)
{
    DNASIM_ASSERT(estimates.size() == data.size(),
                  "estimate/cluster count mismatch: ",
                  estimates.size(), " vs ", data.size());
    AccuracyResult result;
    result.num_clusters = data.size();
    for (size_t i = 0; i < data.size(); ++i) {
        const Strand &ref = data[i].reference;
        const Strand &est = estimates[i];
        if (est == ref)
            ++result.num_perfect;
        result.num_chars += ref.size();
        size_t common = std::min(ref.size(), est.size());
        for (size_t p = 0; p < common; ++p)
            if (ref[p] == est[p])
                ++result.num_chars_correct;
    }
    return result;
}

AccuracyResult
evaluateAccuracy(const Dataset &data, const Reconstructor &algo,
                 Rng &rng)
{
    return scoreReconstructions(data,
                                reconstructAll(data, algo, rng));
}

AccuracyResult
evaluatePoolAccuracy(const StrandPoolView &reads,
                     const std::vector<uint32_t> &assignments,
                     const std::vector<uint32_t> &origins,
                     const StrandPoolView &references,
                     const Reconstructor &algo, Rng &rng)
{
    DNASIM_ASSERT(assignments.size() == reads.size(),
                  "assignment/read count mismatch: ",
                  assignments.size(), " vs ", reads.size());
    DNASIM_ASSERT(origins.size() == reads.size(),
                  "origin/read count mismatch: ", origins.size(),
                  " vs ", reads.size());

    uint32_t num_clusters = 0;
    for (uint32_t c : assignments)
        num_clusters = std::max(num_clusters, c + 1);
    std::vector<std::vector<uint32_t>> members(num_clusters);
    for (size_t r = 0; r < assignments.size(); ++r)
        members[assignments[r]].push_back(
            static_cast<uint32_t>(r));

    struct ClusterScore
    {
        uint32_t perfect = 0;
        uint64_t chars = 0;
        uint64_t correct = 0;
    };

    obs::ProgressScope progress("reconstruct", num_clusters);
    std::vector<ClusterScore> scores = par::parallelTransform(
        static_cast<size_t>(num_clusters), [&](size_t c) {
            // Materialize just this cluster's copies; the scratch
            // dies with the work item, so peak RSS holds one
            // cluster per worker, not the pool.
            std::vector<Strand> copies;
            copies.reserve(members[c].size());
            std::vector<uint32_t> cluster_origins;
            cluster_origins.reserve(members[c].size());
            Strand scratch;
            for (uint32_t r : members[c]) {
                copies.emplace_back(reads.chars(r, scratch));
                cluster_origins.push_back(origins[r]);
            }
            // Majority origin, ties to the smallest id — the
            // scoreClustering semantics.
            std::sort(cluster_origins.begin(), cluster_origins.end());
            uint32_t majority = 0;
            size_t best = 0;
            for (size_t lo = 0; lo < cluster_origins.size();) {
                size_t hi = lo;
                while (hi < cluster_origins.size() &&
                       cluster_origins[hi] == cluster_origins[lo])
                    ++hi;
                if (hi - lo > best) {
                    best = hi - lo;
                    majority = cluster_origins[lo];
                }
                lo = hi;
            }
            DNASIM_ASSERT(majority < references.size(),
                          "origin ", majority,
                          " out of reference range");
            Strand ref;
            references.materialize(majority, ref);
            Rng cluster_rng = rng.fork(c);
            const Strand estimate =
                algo.reconstruct(copies, ref.size(), cluster_rng);
            ClusterScore score;
            score.perfect = estimate == ref ? 1 : 0;
            score.chars = ref.size();
            const size_t common =
                std::min(ref.size(), estimate.size());
            for (size_t p = 0; p < common; ++p)
                if (ref[p] == estimate[p])
                    ++score.correct;
            progress.advance();
            return score;
        });

    AccuracyResult result;
    result.num_clusters = num_clusters;
    for (const ClusterScore &s : scores) {
        result.num_perfect += s.perfect;
        result.num_chars += s.chars;
        result.num_chars_correct += s.correct;
    }
    return result;
}

} // namespace dnasim
