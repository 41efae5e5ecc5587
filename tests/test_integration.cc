/**
 * @file
 * Cross-module integration tests: the paper's full experimental loop
 * (wetlab data -> calibration -> simulation -> reconstruction ->
 * accuracy comparison) and the imperfect-clustering path, at small
 * scale so they stay fast.
 */

#include <gtest/gtest.h>

#include "analysis/accuracy.hh"
#include "analysis/dataset_distance.hh"
#include "analysis/error_positions.hh"
#include "cluster/greedy_cluster.hh"
#include "core/channel_simulator.hh"
#include "core/ids_model.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "data/io.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/iterative.hh"

#include <cmath>
#include <sstream>

namespace dnasim
{
namespace
{

struct Lab
{
    Dataset wetlab;
    ErrorProfile profile;
};

const Lab &
lab()
{
    static const Lab instance = [] {
        Lab l;
        WetlabConfig config;
        config.num_clusters = 120;
        NanoporeDatasetGenerator generator(config);
        Rng rng(0x17e9);
        l.wetlab = generator.generate(rng);
        ErrorProfiler profiler;
        l.profile = profiler.calibrate(l.wetlab);
        return l;
    }();
    return instance;
}

Dataset
fixedCoverageProtocol(const Dataset &data, size_t n, uint64_t seed)
{
    Dataset shuffled = data;
    Rng rng(seed);
    shuffled.shuffleWithinClusters(rng);
    return shuffled.fixedCoverage(n, 10);
}

TEST(Integration, CalibratedRateTracksWetlabStructuralRate)
{
    // The profiler filters junk reads, so the calibrated rate lands
    // near the structural 5.9% even though the dataset's raw
    // aggregate (with aliens and truncations) is higher.
    EXPECT_GT(lab().profile.totalRate(), 0.04);
    EXPECT_LT(lab().profile.totalRate(), 0.09);
}

TEST(Integration, CalibratedSpatialIsEndHeavy)
{
    const auto &spatial = lab().profile.spatial;
    double head = spatial.multiplier(0, 110);
    double mid = spatial.multiplier(55, 110);
    double tail = spatial.multiplier(109, 110);
    EXPECT_GT(head, mid);
    EXPECT_GT(tail, mid);
    EXPECT_GT(tail, head); // end ~2x the beginning
}

TEST(Integration, GestaltProfileIsTerminalHeavy)
{
    // Fig 3.2b: gestalt-aligned errors at the last two positions
    // outnumber those at the first two, by about 2x in the paper.
    // Counted as fig_3_2 counts them.
    const Histogram gestalt = gestaltProfilePre(lab().wetlab);
    const size_t len = lab().profile.design_length;
    ASSERT_EQ(len, 110u);
    const uint64_t head = gestalt.count(0) + gestalt.count(1);
    const uint64_t tail = gestalt.count(len - 1) + gestalt.count(len - 2);
    ASSERT_GT(head, 0u);
    EXPECT_GT(static_cast<double>(tail), 1.5 * static_cast<double>(head))
        << "tail " << tail << ", head " << head;
}

TEST(Integration, ChiSquareDistanceFallsDownTheLadder)
{
    // Section 3.1's closed-form criteria, as ablation_metrics derives
    // them at its default seed: the mean chi-square distance to the
    // real data falls naive > +Cond+LD > +Skew, and the positional
    // distance collapses at the +Skew step. The last step, to
    // +2nd-order, does not hold across seeds and is not asserted.
    const Rng seed(0xbe9c);
    WetlabConfig config;
    config.num_clusters = 150;
    Rng gen_rng = seed.fork(0x3e7);
    const Dataset real =
        NanoporeDatasetGenerator(config).generate(gen_rng);
    const ErrorProfile profile = ErrorProfiler().calibrate(real);
    const DatasetSignature real_sig = datasetSignature(real);
    auto distance = [&](const IdsChannelModel &model) {
        Rng rng = seed.fork(0xd1);
        return datasetDistance(
            real_sig, datasetSignature(
                          ChannelSimulator(model).simulateLike(real, rng)));
    };
    const DatasetDistance naive =
        distance(IdsChannelModel::naive(profile));
    const DatasetDistance conditional =
        distance(IdsChannelModel::conditional(profile));
    const DatasetDistance skew = distance(IdsChannelModel::skew(profile));
    EXPECT_GT(naive.mean(), conditional.mean())
        << naive.str() << " vs " << conditional.str();
    EXPECT_GT(conditional.mean(), skew.mean())
        << conditional.str() << " vs " << skew.str();
    EXPECT_GE(conditional.positions, 3.0 * skew.positions)
        << conditional.str() << " vs " << skew.str();
}

/**
 * The references and salted Rng streams of a bench harness run at
 * --seed @p seed --clusters @p clusters (bench/bench_common.hh):
 * simulate() is its modelDataset(), stream(salt) its env.rng(salt).
 */
struct HarnessRun
{
    Rng root;
    Dataset wetlab;
    std::vector<Strand> refs;

    HarnessRun(uint64_t seed, size_t clusters) : root(seed)
    {
        WetlabConfig config;
        config.num_clusters = clusters;
        Rng gen_rng = stream(0x3e7);
        wetlab = NanoporeDatasetGenerator(config).generate(gen_rng);
        refs = wetlab.references();
    }

    Rng stream(uint64_t salt) const { return root.fork(salt); }

    Dataset
    simulate(const ErrorModel &model, size_t n, uint64_t salt) const
    {
        FixedCoverage coverage(n);
        Rng rng = stream(salt);
        return ChannelSimulator(model).simulate(refs, coverage, rng);
    }
};

TEST(Integration, BmaGapToRealShrinksDownTheLadder)
{
    // Table 3.1 at N = 5 as table_3_1 derives it at its default seed:
    // BMA's per-character accuracy on simulated data is above the
    // real row, and refining the model from naive to +2nd-order
    // shrinks that gap. Across table_3_1 seeds 1-8 x 150 and 300
    // clusters the per-character gap shrank in all 16 runs; the
    // per-strand gap grew in one (seed 3 at 150 clusters) and is not
    // asserted (EXPERIMENTS.md).
    const HarnessRun run(0xbe9c, 150);
    const ErrorProfile profile = ErrorProfiler().calibrate(run.wetlab);
    Dataset real = run.wetlab;
    Rng shuffle_rng = run.stream(0x5b0f);
    real.shuffleWithinClusters(shuffle_rng);
    real = real.fixedCoverage(5, 10);
    const BmaLookahead bma;
    // Row i of the table reconstructs with stream 0x501 + i.
    auto perChar = [&](const Dataset &data, uint64_t row) {
        Rng rng = run.stream(0x501 + row);
        return evaluateAccuracy(data, bma, rng).perChar();
    };
    const double real_char = perChar(real, 0);
    const double naive_gap =
        perChar(run.simulate(IdsChannelModel::naive(profile), 5, 0x401),
                1) -
        real_char;
    const double refined_gap =
        perChar(run.simulate(IdsChannelModel::secondOrder(profile), 5,
                             0x404),
                4) -
        real_char;
    EXPECT_GT(naive_gap, 0.0) << "naive " << naive_gap;
    EXPECT_LT(std::abs(refined_gap), naive_gap)
        << "naive " << naive_gap << ", +2nd-order " << refined_gap;
}

TEST(Integration, AShapedIsEasierThanVShapedForBma)
{
    // Fig 3.10 at p = 0.15, N = 5: errors near the ends break both
    // of BMA's passes, so it is far more accurate on A-shaped skew
    // (errors mid-strand) than on V-shaped skew (errors at the ends).
    // fig_3_10 at seeds 1-8 x 100 and 200 clusters measured A at
    // 75.5-78.2 % per character against V at 50.1-52.7 %.
    const HarnessRun run(1, 100);
    const size_t len = WetlabConfig().strand_length;
    const BmaLookahead bma;
    auto perChar = [&](const PositionProfile &spatial) {
        const IdsChannelModel model = IdsChannelModel::skew(
            ErrorProfile::uniform(0.15, len).withSpatial(spatial));
        const Dataset data = run.simulate(model, 5, 0x3a0);
        Rng rng = run.stream(0x3a1);
        return evaluateAccuracy(data, bma, rng).perChar();
    };
    const double a_shaped = perChar(PositionProfile::aShaped(len));
    const double v_shaped = perChar(PositionProfile::vShaped(len));
    EXPECT_GE(a_shaped - v_shaped, 0.15)
        << "A " << a_shaped << ", V " << v_shaped;
}

TEST(Integration, BmaMiddleThirdShareRisesWithCoverage)
{
    // Fig 3.8: on uniform p = 0.15 noise, more copies push BMA's
    // gestalt-aligned residuals toward the middle of the strand. The
    // N = 5 -> 10 rise held in 16 of 16 fig_3_8 runs (seeds 1-8 x 100
    // and 200 clusters, smallest gap 2.1 points); N = 5 -> 6 fell in
    // 3 of them and is not asserted.
    const HarnessRun run(1, 100);
    const size_t len = WetlabConfig().strand_length;
    const IdsChannelModel model =
        IdsChannelModel::naive(ErrorProfile::uniform(0.15, len));
    const BmaLookahead bma;
    auto middleShare = [&](size_t n) {
        const Dataset data = run.simulate(model, n, 0x380 + n);
        Rng rng = run.stream(0x385 + n);
        const std::vector<Strand> estimates =
            reconstructAll(data, bma, rng);
        return bucketProfile(gestaltProfilePost(data, estimates), len,
                             3)[1]
            .share;
    };
    const double n5 = middleShare(5);
    const double n10 = middleShare(10);
    EXPECT_GT(n10, n5) << "N=5 " << n5 << ", N=10 " << n10;
}

TEST(Integration, SimulatedDataEasierThanReal)
{
    // The core finding of Tables 2.2/3.1: at fixed low coverage,
    // naive-simulated data reconstructs better than the real data.
    Dataset real5 = fixedCoverageProtocol(lab().wetlab, 5, 0x51);

    IdsChannelModel naive = IdsChannelModel::naive(lab().profile);
    ChannelSimulator sim(naive);
    std::vector<Strand> refs;
    for (const auto &c : real5)
        refs.push_back(c.reference);
    FixedCoverage cov(5);
    Rng sim_rng(0x52);
    Dataset naive5 = sim.simulate(refs, cov, sim_rng);

    Iterative iterative;
    Rng r1(0x53), r2(0x54);
    double real_acc =
        evaluateAccuracy(real5, iterative, r1).perChar();
    double sim_acc =
        evaluateAccuracy(naive5, iterative, r2).perChar();
    EXPECT_GT(sim_acc, real_acc);
}

TEST(Integration, SkewModelHurtsMoreThanNaive)
{
    // Adding spatial skew makes simulated data harder (Table 3.1's
    // BMA column falls toward the real row).
    std::vector<Strand> refs;
    for (const auto &c : lab().wetlab)
        refs.push_back(c.reference);
    FixedCoverage cov(5);

    IdsChannelModel naive = IdsChannelModel::naive(lab().profile);
    IdsChannelModel skew = IdsChannelModel::skew(lab().profile);
    Rng g1(0x61), g2(0x62);
    Dataset naive5 =
        ChannelSimulator(naive).simulate(refs, cov, g1);
    Dataset skew5 = ChannelSimulator(skew).simulate(refs, cov, g2);

    BmaLookahead bma;
    Rng r1(0x63), r2(0x64);
    double naive_acc = evaluateAccuracy(naive5, bma, r1).perChar();
    double skew_acc = evaluateAccuracy(skew5, bma, r2).perChar();
    EXPECT_GT(naive_acc, skew_acc);
}

TEST(Integration, IterativeResidualsEndHeavyOnRealData)
{
    // Fig 3.4: the Iterative algorithm's residual Hamming errors
    // grow toward the strand end.
    Dataset real5 = fixedCoverageProtocol(lab().wetlab, 5, 0x71);
    Iterative iterative;
    Rng rng(0x72);
    auto estimates = reconstructAll(real5, iterative, rng);
    auto thirds = bucketProfile(
        hammingProfilePost(real5, estimates), 110, 3);
    EXPECT_GT(thirds[2].errors, thirds[0].errors);
}

TEST(Integration, BmaResidualsMidHeavyOnUniformData)
{
    // Fig 3.7: on uniform noise, two-way BMA pushes residual errors
    // to the middle of the strand.
    std::vector<Strand> refs;
    for (const auto &c : lab().wetlab)
        refs.push_back(c.reference);
    ErrorProfile uniform = ErrorProfile::uniform(0.12, 110);
    IdsChannelModel model = IdsChannelModel::naive(uniform);
    FixedCoverage cov(5);
    Rng g(0x81);
    Dataset data = ChannelSimulator(model).simulate(refs, cov, g);

    BmaLookahead bma;
    Rng rng(0x82);
    auto estimates = reconstructAll(data, bma, rng);
    auto thirds = bucketProfile(
        hammingProfilePost(data, estimates), 110, 3);
    EXPECT_GT(thirds[1].errors, thirds[0].errors);
    EXPECT_GT(thirds[1].errors, thirds[2].errors);
}

TEST(Integration, EvyatRoundTripPreservesAccuracy)
{
    Dataset real5 = fixedCoverageProtocol(lab().wetlab, 5, 0x91);
    std::ostringstream out;
    writeEvyat(real5, out);
    std::istringstream in(out.str());
    Dataset parsed = readEvyat(in);

    Iterative iterative;
    Rng r1(0x92), r2(0x92);
    AccuracyResult direct = evaluateAccuracy(real5, iterative, r1);
    AccuracyResult via_io = evaluateAccuracy(parsed, iterative, r2);
    EXPECT_EQ(direct.num_perfect, via_io.num_perfect);
    EXPECT_EQ(direct.num_chars_correct, via_io.num_chars_correct);
}

TEST(Integration, ImperfectClusteringPath)
{
    // Pool the reads, recluster them, and verify the clusters are
    // usable for reconstruction: section 3.1's imperfect-clustering
    // evaluation mode.
    WetlabConfig config;
    config.num_clusters = 25;
    config.mean_coverage = 8.0;
    NanoporeDatasetGenerator generator(config);
    Rng rng(0xa1);
    Dataset data = generator.generate(rng);

    auto pool = data.pooledReads();
    std::vector<size_t> origins;
    for (size_t i = 0; i < data.size(); ++i)
        for (size_t k = 0; k < data[i].coverage(); ++k)
            origins.push_back(i);

    ClusterOptions options;
    options.distance_threshold = 20;
    auto clusters = clusterReads(pool, options);
    auto purity = scoreClustering(clusters, origins);
    EXPECT_GT(purity.purity(), 0.80);
}

TEST(Integration, HigherCoverageNeverHurtsMuch)
{
    // Fig 3.3's monotone region on the real data.
    Iterative iterative;
    Dataset at3 = fixedCoverageProtocol(lab().wetlab, 3, 0xb1);
    Dataset at8 = fixedCoverageProtocol(lab().wetlab, 8, 0xb1);
    Rng r1(0xb2), r2(0xb3);
    double acc3 = evaluateAccuracy(at3, iterative, r1).perChar();
    double acc8 = evaluateAccuracy(at8, iterative, r2).perChar();
    EXPECT_GT(acc8, acc3 - 0.01);
}

} // namespace
} // namespace dnasim
