/**
 * @file
 * The `dnasim explain` subcommand: failure forensics with ground
 * truth.
 *
 * Re-simulates a dataset with lineage recording on, reconstructs it
 * (optionally through the full pool/shuffle/re-cluster path), and
 * runs the attribution engine (analysis/lineage.hh) so every
 * residual error is classified into a concrete cause — the question
 * "why is this consensus base wrong?" answered from the simulator's
 * privileged knowledge of where every error came from.
 *
 * Every stage is deterministic for a fixed seed at any --threads and
 * --simd setting, so the text report, the JSON report and the
 * --lineage-out stream are byte-identical across runs.
 */

#include "cli/commands.hh"

#include <algorithm>
#include <iostream>

#include "analysis/accuracy.hh"
#include "analysis/lineage.hh"
#include "base/logging.hh"
#include "cluster/recluster.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "data/io.hh"

namespace dnasim
{

int
cmdExplain(const Args &args)
{
    if (args.positional().size() < 2) {
        DNASIM_FATAL(
            "usage: dnasim explain <dataset.evyat> "
            "[--model second-order] [--algo iterative] "
            "[--coverage N] [--recluster] [--json] [--buckets B] "
            "[--lineage-out lineage.jsonl]");
    }
    const size_t coverage = args.getCount("coverage", 0);
    const size_t buckets = args.getCount("buckets", 11, 1);
    // Read with every other flag, so a bad sketch shape is fatal
    // whether or not --recluster uses it.
    const ClusterOptions cluster_options = clusterOptionsFromArgs(args);
    Dataset real = readEvyatFile(args.positional()[1]);
    ErrorProfile profile = errorProfileFromArgs(args, real);
    auto model = makeModel(args.get("model", "second-order"),
                           profile);
    auto algo = makeReconstructor(args.get("algo", "iterative"));
    Rng rng(args.getSeed("seed", 0xe4b1a1));

    // Simulate with the lineage log attached: same strands as a
    // plain run, plus the ground truth of every injected error.
    ChannelSimulator sim(*model);
    LineageLog lineage;
    Dataset simulated;
    if (coverage > 0) {
        simulated = sim.simulate(real.references(),
                                 FixedCoverage(coverage), rng, &lineage);
    } else {
        simulated = sim.simulateLike(real, rng, &lineage);
    }

    size_t design_len = 0;
    for (const auto &c : simulated)
        design_len = std::max(design_len, c.reference.size());

    LineageInputs inputs;
    inputs.truth = &simulated;
    inputs.lineage = &lineage;
    inputs.heatmap_buckets = buckets;

    // Recluster-mode storage must outlive the attribution call.
    ReclusteredPool reclustered;
    std::vector<ReadAssignment> assignments;
    std::vector<Strand> estimates;

    if (args.has("recluster")) {
        // Identities ride through the shuffle, so ground truth
        // follows every read into whatever cluster it lands in.
        reclustered =
            poolAndRecluster(simulated, cluster_options, rng,
                             /*with_identity=*/true, &assignments);
        // The lineage still reads the pool: regroup a copy.
        estimates = reconstructAll(ReclusteredPool(reclustered).regrouped(),
                                   *algo, rng, design_len);
        inputs.clusters = &reclustered.clusters;
        inputs.pool = &reclustered.pool;
        inputs.identity = &reclustered.identity;
        inputs.assignments = &assignments;
    } else {
        estimates = reconstructAll(simulated, *algo, rng);
    }
    inputs.estimates = &estimates;

    LineageReport report = attributeLineage(inputs);

    if (args.has("lineage-out")) {
        const std::string lineage_out = args.get("lineage-out");
        std::string error;
        if (!writeLineageJsonl(lineage_out, inputs, report, &error))
            DNASIM_FATAL("lineage: ", error);
        inform("lineage: wrote ", lineage_out, " (",
               report.failures.size(), " classified failures)");
    }

    if (args.has("json"))
        std::cout << lineageReportJson(report);
    else
        std::cout << lineageReportText(report);
    return 0;
}

} // namespace dnasim
