#include "analysis/accuracy.hh"

#include <algorithm>

#include "base/logging.hh"
#include "cluster/greedy_cluster.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"

namespace dnasim
{

namespace
{

/** Add @p estimate's score against @p ref to @p result. */
void
addScore(AccuracyResult &result, const Strand &ref,
         const Strand &estimate)
{
    if (estimate == ref)
        ++result.num_perfect;
    result.num_chars += ref.size();
    const size_t common = std::min(ref.size(), estimate.size());
    for (size_t p = 0; p < common; ++p)
        if (ref[p] == estimate[p])
            ++result.num_chars_correct;
}

} // anonymous namespace

std::vector<Strand>
reconstructAll(const Dataset &data, const Reconstructor &algo,
               Rng &rng, size_t design_len)
{
    // Per-cluster streams forked by index keep the estimates
    // identical to the serial run for any thread count.
    obs::Span span("analysis.reconstructAll", "analysis", data.size());
    return par::parallelTransform(data.size(), [&](size_t i) {
        Rng cluster_rng = rng.fork(i);
        auto estimate = algo.reconstruct(
            data[i].copies,
            design_len > 0 ? design_len : data[i].reference.size(),
            cluster_rng);
        span.advance();
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
    for (size_t i = 0; i < data.size(); ++i)
        addScore(result, data[i].reference, estimates[i]);
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

    obs::Span span("analysis.evaluatePoolAccuracy", "analysis",
                   num_clusters);
    std::vector<AccuracyResult> scores = par::parallelTransform(
        static_cast<size_t>(num_clusters), [&](size_t c) {
            // Materialize just this cluster's copies; the scratch
            // dies with the work item, so peak RSS holds one
            // cluster per worker, not the pool.
            std::vector<Strand> copies;
            copies.reserve(members[c].size());
            std::vector<size_t> cluster_origins;
            cluster_origins.reserve(members[c].size());
            Strand scratch;
            for (uint32_t r : members[c]) {
                copies.emplace_back(reads.chars(r, scratch));
                cluster_origins.push_back(origins[r]);
            }
            // Scored against its majority origin, as scoreClustering
            // labels the cluster.
            const size_t majority = majorityOrigin(cluster_origins);
            DNASIM_ASSERT(majority < references.size(),
                          "origin ", majority,
                          " out of reference range");
            Strand ref;
            references.materialize(majority, ref);
            Rng cluster_rng = rng.fork(c);
            AccuracyResult score;
            addScore(score, ref,
                     algo.reconstruct(copies, ref.size(), cluster_rng));
            span.advance();
            return score;
        });

    AccuracyResult result;
    result.num_clusters = num_clusters;
    for (const AccuracyResult &s : scores) {
        result.num_perfect += s.num_perfect;
        result.num_chars += s.num_chars;
        result.num_chars_correct += s.num_chars_correct;
    }
    return result;
}

} // namespace dnasim
