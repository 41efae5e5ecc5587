/**
 * @file
 * Section 3.1 ablation — perfect (pseudo-) clustering vs imperfect
 * clustering: the paper evaluates on pseudo-clustered data to avoid
 * "introduction of errors of a characteristic distribution due to
 * the nature of the clustering algorithm"; this harness measures
 * how large that clustering-induced accuracy loss actually is.
 */

#include <iostream>

#include "analysis/clustered_accuracy.hh"
#include "bench_common.hh"
#include "reconstruct/iterative.hh"

using namespace dnasim;

int
main(int argc, char **argv)
{
    std::cout << "=== Ablation (section 3.1): pseudo-clustering vs "
                 "imperfect clustering ===\n\n";
    // A smaller default: re-clustering pools every read.
    BenchEnv env = makeBenchEnv(argc, argv, 120);

    Iterative iterative;

    // Perfect clustering: the simulator's own grouping.
    Rng r1 = env.rng(0xe1);
    AccuracyResult perfect =
        evaluateAccuracy(env.wetlab, iterative, r1);

    // Imperfect clustering: pool, shuffle, re-cluster, reconstruct.
    ClusterOptions options;
    options.distance_threshold = 20;
    Rng r2 = env.rng(0xe2);
    ClusteredAccuracy sketch = evaluateWithClustering(
        env.wetlab, options, iterative, r2);

    TextTable table("Iterative per-strand accuracy, full coverage");
    table.setHeader({"clustering", "clusters", "per-strand %"});
    table.addRow({"perfect (pseudo)",
                  std::to_string(perfect.num_clusters),
                  fmtPercent(perfect.perStrand())});
    table.addRow({"sketch re-clustering",
                  std::to_string(sketch.num_clusters),
                  fmtPercent(sketch.perStrand())});
    table.print(std::cout);

    std::cout << "shape check: imperfect clustering should cost "
                 "some per-strand accuracy (split/merged clusters) "
                 "but stay in the same regime — justifying the "
                 "paper's choice to factor clustering out of the "
                 "simulator evaluation.\n";
    return 0;
}
