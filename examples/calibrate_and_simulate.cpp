/**
 * @file
 * The paper's core workflow as a library consumer would run it:
 *
 *  1. take a clustered "wetlab" dataset (here: the synthetic
 *     Nanopore channel; in production: an evyat file from a real
 *     sequencing run, loaded with readEvyatFile);
 *  2. calibrate a full error profile from it — conditional
 *     probabilities, long deletions, spatial skew, second-order
 *     errors — with no manual parameter entry;
 *  3. instantiate the simulator ladder (naive -> conditional ->
 *     skew -> second-order) from that one profile;
 *  4. simulate datasets and compare their reconstruction accuracy
 *     and closed-form distance against the real data.
 */

#include <iostream>

#include "analysis/accuracy.hh"
#include "analysis/dataset_distance.hh"
#include "base/table.hh"
#include "core/channel_simulator.hh"
#include "core/ids_model.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/iterative.hh"

using namespace dnasim;

int
main()
{
    Rng rng(7);

    // 1. The "real" dataset: 300 clusters of the synthetic Nanopore
    //    wetlab channel.
    WetlabConfig config;
    config.num_clusters = 300;
    NanoporeDatasetGenerator generator(config);
    Dataset real = generator.generate(rng);
    auto stats = real.stats();
    std::cout << "wetlab data: " << stats.num_copies
              << " noisy copies over " << stats.num_clusters
              << " clusters, aggregate error "
              << fmtPercent(stats.aggregate_error_rate) << "%\n\n";

    // 2. Calibrate.
    ErrorProfiler profiler;
    ErrorProfile profile = profiler.calibrate(real);
    std::cout << "calibrated profile:\n" << profile.str() << "\n\n";

    // 3 + 4. The ladder, evaluated at fixed coverage 5 on both
    //    metrics.
    Dataset shuffled = real;
    Rng shuffle_rng = rng.fork(1);
    shuffled.shuffleWithinClusters(shuffle_rng);
    Dataset real5 = shuffled.fixedCoverage(5, 10);

    const std::vector<Strand> refs = real5.references();

    IdsChannelModel models[] = {
        IdsChannelModel::naive(profile),
        IdsChannelModel::conditional(profile),
        IdsChannelModel::skew(profile),
        IdsChannelModel::secondOrder(profile),
    };

    BmaLookahead bma;
    Iterative iterative;
    DatasetSignature real_sig = datasetSignature(real5);

    TextTable table("simulator ladder at coverage 5");
    table.setHeader({"data", "BMA strand%", "Iter strand%",
                     "distance to real"});
    {
        Rng r1 = rng.fork(2), r2 = rng.fork(3);
        table.addRow(
            {"real",
             fmtPercent(
                 evaluateAccuracy(real5, bma, r1).perStrand()),
             fmtPercent(
                 evaluateAccuracy(real5, iterative, r2).perStrand()),
             "-"});
    }
    for (const auto &model : models) {
        ChannelSimulator sim(model);
        FixedCoverage cov(5);
        Rng gen = rng.fork(4);
        Dataset simulated = sim.simulate(refs, cov, gen);
        Rng r1 = rng.fork(5), r2 = rng.fork(6);
        DatasetDistance dist =
            datasetDistance(real_sig, datasetSignature(simulated));
        table.addRow(
            {model.name(),
             fmtPercent(
                 evaluateAccuracy(simulated, bma, r1).perStrand()),
             fmtPercent(evaluateAccuracy(simulated, iterative, r2)
                            .perStrand()),
             fmtDouble(dist.mean(), 4)});
    }
    table.print(std::cout);
    std::cout << "each refinement step should move the simulated "
                 "rows toward the real row.\n";
    return 0;
}
