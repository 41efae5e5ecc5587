#include "analysis/clustered_accuracy.hh"

#include <algorithm>
#include <unordered_set>

#include "analysis/accuracy.hh"
#include "cluster/recluster.hh"

namespace dnasim
{

ClusteredAccuracy
evaluateWithClustering(const Dataset &data,
                       const ClusterOptions &options,
                       const Reconstructor &algo, Rng &rng)
{
    ClusteredAccuracy result;
    result.num_references = data.size();
    if (data.empty())
        return result;

    const Dataset clusters =
        poolAndRecluster(data, options, rng).regrouped();
    result.num_clusters = clusters.size();

    size_t design_len = 0;
    for (const auto &c : data)
        design_len = std::max(design_len, c.reference.size());
    const std::vector<Strand> estimates =
        reconstructAll(clusters, algo, rng, design_len);

    const std::unordered_set<Strand> recovered(estimates.begin(),
                                               estimates.end());
    for (const auto &cluster : data)
        if (recovered.count(cluster.reference) > 0)
            ++result.recovered_exact;
    return result;
}

} // namespace dnasim
