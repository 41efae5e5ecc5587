/**
 * @file
 * Unit and statistical tests for the core library: error profiles,
 * the IDS channel engine and its feature ladder, the DNASimulator
 * port, coverage models, the channel simulator, the data-driven
 * profiler, and the wetlab channel.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "align/edit_distance.hh"
#include "base/strand_pool.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/dnasimulator_model.hh"
#include "core/error_profile.hh"
#include "core/ids_model.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"
#include "par/thread_pool.hh"

namespace dnasim
{
namespace
{

/** Mean per-base error rate of @p model measured over transmissions. */
double
measuredErrorRate(const ErrorModel &model, size_t len, int copies,
                  uint64_t seed)
{
    StrandFactory factory;
    Rng rng(seed);
    Strand ref = factory.make(len, rng);
    size_t total_errors = 0;
    for (int i = 0; i < copies; ++i) {
        Strand copy = model.transmit(ref, rng);
        total_errors += levenshtein(ref, copy);
    }
    return static_cast<double>(total_errors) /
           (static_cast<double>(len) * copies);
}

TEST(ErrorProfile, UniformSplitsRates)
{
    ErrorProfile p = ErrorProfile::uniform(0.09, 110);
    EXPECT_NEAR(p.p_sub, 0.03, 1e-12);
    EXPECT_NEAR(p.p_ins, 0.03, 1e-12);
    EXPECT_NEAR(p.p_del, 0.03, 1e-12);
    EXPECT_NEAR(p.totalRate(), 0.09, 1e-12);
    for (size_t b = 0; b < kNumBases; ++b) {
        EXPECT_NEAR(p.p_sub_given[b], 0.03, 1e-12);
        EXPECT_DOUBLE_EQ(p.confusion[b][b], 0.0);
    }
}

TEST(ErrorProfile, UniformCustomFractions)
{
    ErrorProfile p = ErrorProfile::uniform(0.10, 110, 1.0, 0.0, 0.0);
    EXPECT_NEAR(p.p_sub, 0.10, 1e-12);
    EXPECT_DOUBLE_EQ(p.p_ins, 0.0);
    EXPECT_DOUBLE_EQ(p.p_del, 0.0);
}

TEST(ErrorProfile, MeanLongDeletionLength)
{
    ErrorProfile p;
    EXPECT_DOUBLE_EQ(p.meanLongDeletionLength(), 0.0);
    // The paper's calibrated ratios give a mean near 2.17.
    p.long_del_len_weights = {84.0, 13.0, 1.8, 0.2, 0.02};
    EXPECT_NEAR(p.meanLongDeletionLength(), 2.17, 0.03);
}

TEST(ErrorProfile, WithSpatialReplacesProfile)
{
    ErrorProfile p = ErrorProfile::uniform(0.05, 110);
    ErrorProfile q = p.withSpatial(PositionProfile::aShaped(110));
    EXPECT_TRUE(p.spatial.isUniform());
    EXPECT_FALSE(q.spatial.isUniform());
    EXPECT_DOUBLE_EQ(q.totalRate(), p.totalRate());
}

TEST(IdsModel, ZeroRateIsIdentity)
{
    ErrorProfile p = ErrorProfile::uniform(0.0, 110);
    IdsChannelModel model = IdsChannelModel::naive(p);
    StrandFactory factory;
    Rng rng(40);
    for (int i = 0; i < 10; ++i) {
        Strand ref = factory.make(110, rng);
        EXPECT_EQ(model.transmit(ref, rng), ref);
    }
}

TEST(IdsModel, NamesFollowFeatures)
{
    ErrorProfile p = ErrorProfile::uniform(0.05, 110);
    EXPECT_EQ(IdsChannelModel::naive(p).name(), "naive");
    EXPECT_EQ(IdsChannelModel::conditional(p).name(), "conditional");
    EXPECT_EQ(IdsChannelModel::skew(p).name(), "skew");
    EXPECT_EQ(IdsChannelModel::secondOrder(p).name(),
              "second-order");
}

TEST(IdsModel, AggregateRateIsRespected)
{
    for (double rate : {0.03, 0.06, 0.12}) {
        ErrorProfile p = ErrorProfile::uniform(rate, 110);
        IdsChannelModel model = IdsChannelModel::naive(p);
        double measured = measuredErrorRate(model, 110, 400, 41);
        EXPECT_NEAR(measured, rate, rate * 0.15) << "rate " << rate;
    }
}

TEST(IdsModel, DeterministicGivenSeed)
{
    ErrorProfile p = ErrorProfile::uniform(0.1, 110);
    IdsChannelModel model = IdsChannelModel::naive(p);
    StrandFactory factory;
    Rng setup(42);
    Strand ref = factory.make(110, setup);
    Rng a(7), b(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(model.transmit(ref, a), model.transmit(ref, b));
}

TEST(IdsModel, ConfusionMatrixRespected)
{
    // All substitutions of A go to G.
    ErrorProfile p = ErrorProfile::uniform(0.3, 100, 1.0, 0.0, 0.0);
    for (size_t r = 0; r < kNumBases; ++r)
        p.confusion[baseIndex('A')][r] = 0.0;
    p.confusion[baseIndex('A')][baseIndex('G')] = 1.0;
    IdsChannelModel model = IdsChannelModel::conditional(p);

    Strand ref(100, 'A');
    Rng rng(43);
    for (int i = 0; i < 20; ++i) {
        Strand copy = model.transmit(ref, rng);
        for (char c : copy)
            EXPECT_TRUE(c == 'A' || c == 'G') << c;
    }
}

TEST(IdsModel, ConditionalPerBaseRates)
{
    // Base A never errs; base T errs heavily.
    ErrorProfile p = ErrorProfile::uniform(0.0, 100);
    p.p_sub_given[baseIndex('T')] = 0.4;
    for (size_t r = 0; r < kNumBases; ++r)
        p.confusion[baseIndex('T')][r] =
            (kBaseChars[r] == 'C') ? 1.0 : 0.0;
    IdsChannelModel model = IdsChannelModel::conditional(p);

    Strand ref = "ATATATATATATATATATAT";
    Rng rng(44);
    size_t a_errors = 0, t_errors = 0, trials = 500;
    for (size_t i = 0; i < trials; ++i) {
        Strand copy = model.transmit(ref, rng);
        ASSERT_EQ(copy.size(), ref.size());
        for (size_t k = 0; k < ref.size(); ++k) {
            if (copy[k] == ref[k])
                continue;
            if (ref[k] == 'A')
                ++a_errors;
            else
                ++t_errors;
        }
    }
    EXPECT_EQ(a_errors, 0u);
    double t_rate = static_cast<double>(t_errors) /
                    (10.0 * static_cast<double>(trials));
    EXPECT_NEAR(t_rate, 0.4, 0.05);
}

TEST(IdsModel, LongDeletionsProduceRuns)
{
    ErrorProfile p = ErrorProfile::uniform(0.0, 200);
    p.p_long_del = 0.02;
    p.long_del_len_weights = {1.0}; // all runs length 2
    IdsChannelModel model = IdsChannelModel::conditional(p);

    StrandFactory factory;
    Rng rng(45);
    Strand ref = factory.make(200, rng);
    size_t deleted = 0;
    const int trials = 300;
    for (int i = 0; i < trials; ++i) {
        Strand copy = model.transmit(ref, rng);
        // Only deletions can occur (sub/ins rates are zero), and a
        // run of length 2 removes two bases except when it starts at
        // the final position.
        EXPECT_LE(copy.size(), ref.size());
        deleted += ref.size() - copy.size();
    }
    double start_rate = static_cast<double>(deleted) / 2.0 /
                        (200.0 * trials);
    EXPECT_NEAR(start_rate, 0.02, 0.005);
}

TEST(IdsModel, SpatialSkewMovesErrors)
{
    ErrorProfile p = ErrorProfile::uniform(0.2, 110, 1.0, 0.0, 0.0);
    p.spatial = PositionProfile::vShaped(110);
    IdsChannelModel model = IdsChannelModel::skew(p);

    StrandFactory factory;
    Rng rng(46);
    Strand ref = factory.make(110, rng);
    size_t edge_errors = 0, mid_errors = 0;
    for (int i = 0; i < 400; ++i) {
        Strand copy = model.transmit(ref, rng);
        ASSERT_EQ(copy.size(), ref.size()); // sub-only profile
        for (size_t k = 0; k < 20; ++k) {
            if (copy[k] != ref[k])
                ++edge_errors;
            if (copy[k + 45] != ref[k + 45])
                ++mid_errors;
        }
    }
    EXPECT_GT(edge_errors, 3 * mid_errors);
}

TEST(IdsModel, SkewPreservesAggregateRate)
{
    ErrorProfile uniform = ErrorProfile::uniform(0.08, 110);
    ErrorProfile skewed =
        uniform.withSpatial(PositionProfile::aShaped(110));
    double flat =
        measuredErrorRate(IdsChannelModel::naive(uniform), 110, 400,
                          47);
    double shaped =
        measuredErrorRate(IdsChannelModel::skew(skewed), 110, 400,
                          48);
    EXPECT_NEAR(flat, shaped, 0.012);
}

TEST(IdsModel, SecondOrderComponentSkew)
{
    // One second-order error: deletion of A concentrated at the last
    // position; everything else error-free.
    ErrorProfile p = ErrorProfile::uniform(0.0, 50);
    p.p_del_given[baseIndex('A')] = 0.2;
    SecondOrderSpec spec;
    spec.key = {EditOpType::Delete, 'A', '\0'};
    spec.rate = 0.2;
    spec.spatial = PositionProfile::terminalSkew(50, 1.0, 40.0, 0);
    p.second_order.push_back(spec);
    IdsChannelModel model = IdsChannelModel::secondOrder(p);

    Strand ref(50, 'A');
    Rng rng(49);
    size_t last_missing = 0, total_missing = 0;
    for (int i = 0; i < 500; ++i) {
        Strand copy = model.transmit(ref, rng);
        total_missing += ref.size() - copy.size();
    }
    // The rate concentrates at the tail; aggregate deletion mass is
    // conserved (mean multiplier 1), so roughly 0.2 * 50 * trials
    // / 50 deletions per strand on average.
    EXPECT_GT(total_missing, 0u);
    (void)last_missing;
}

TEST(IdsModel, RatesAtExposesEffectiveRates)
{
    ErrorProfile p = ErrorProfile::uniform(0.09, 110);
    p.spatial = PositionProfile::terminalSkew(110, 4.0, 8.0);
    IdsChannelModel skew = IdsChannelModel::skew(p);
    auto head = skew.ratesAt('A', 0, 110);
    auto mid = skew.ratesAt('A', 55, 110);
    auto tail = skew.ratesAt('A', 109, 110);
    EXPECT_GT(head.total(), mid.total());
    EXPECT_GT(tail.total(), head.total());

    IdsChannelModel naive = IdsChannelModel::naive(p);
    auto n_head = naive.ratesAt('A', 0, 110);
    auto n_mid = naive.ratesAt('A', 55, 110);
    EXPECT_DOUBLE_EQ(n_head.total(), n_mid.total());
}

TEST(IdsModel, TransmitScaledScalesErrors)
{
    ErrorProfile p = ErrorProfile::uniform(0.05, 110);
    IdsChannelModel model = IdsChannelModel::naive(p);
    StrandFactory factory;
    Rng rng(50);
    Strand ref = factory.make(110, rng);
    size_t base_err = 0, scaled_err = 0;
    for (int i = 0; i < 300; ++i) {
        base_err += levenshtein(ref, model.transmit(ref, rng));
        scaled_err +=
            levenshtein(ref, model.transmitScaled(ref, 3.0, rng));
    }
    EXPECT_NEAR(static_cast<double>(scaled_err) /
                    static_cast<double>(base_err),
                3.0, 0.5);
}

TEST(IdsModel, TransmitScaledZeroIsIdentity)
{
    ErrorProfile p = ErrorProfile::uniform(0.2, 110);
    IdsChannelModel model = IdsChannelModel::naive(p);
    StrandFactory factory;
    Rng rng(51);
    Strand ref = factory.make(110, rng);
    EXPECT_EQ(model.transmitScaled(ref, 0.0, rng), ref);
}

TEST(IdsModel, ExtremeScaleIsClamped)
{
    ErrorProfile p = ErrorProfile::uniform(0.3, 110);
    IdsChannelModel model = IdsChannelModel::naive(p);
    StrandFactory factory;
    Rng rng(52);
    Strand ref = factory.make(110, rng);
    // Even with an absurd multiplier the model must terminate and
    // produce some output.
    Strand copy = model.transmitScaled(ref, 1000.0, rng);
    EXPECT_LE(copy.size(), 2 * ref.size() + 2);
}

TEST(IdsModel, HomopolymerContextConcentratesErrors)
{
    // Sub-only uniform channel with a 4x run multiplier: errors
    // should land in the run far more often than outside, while the
    // aggregate rate is preserved by normalization.
    ErrorProfile p = ErrorProfile::uniform(0.12, 40, 1.0, 0.0, 0.0);
    p.homopolymer_mult = 4.0;
    IdsChannelModel with_ctx = IdsChannelModel::contextual(p);
    IdsChannelModel without_ctx = IdsChannelModel::secondOrder(p);

    // 20 run positions (AAAA x5), 20 non-run positions.
    Strand ref;
    for (int i = 0; i < 5; ++i)
        ref += "AAAACGTC";
    ASSERT_EQ(ref.size(), 40u);
    auto mask = homopolymerRunMask(ref, 3);

    Rng rng(400);
    size_t in = 0, out = 0, total_ctx = 0, total_plain = 0;
    for (int t = 0; t < 600; ++t) {
        Strand copy = with_ctx.transmit(ref, rng);
        ASSERT_EQ(copy.size(), ref.size());
        for (size_t i = 0; i < ref.size(); ++i) {
            if (copy[i] == ref[i])
                continue;
            ++total_ctx;
            (mask[i] ? in : out) += 1;
        }
        Strand plain = without_ctx.transmit(ref, rng);
        for (size_t i = 0; i < ref.size(); ++i)
            total_plain += plain[i] != ref[i] ? 1 : 0;
    }
    // 4x multiplier over equal position counts -> ~4x the errors.
    EXPECT_GT(static_cast<double>(in),
              2.5 * static_cast<double>(out));
    // Aggregate preserved within sampling noise.
    EXPECT_NEAR(static_cast<double>(total_ctx),
                static_cast<double>(total_plain),
                0.15 * static_cast<double>(total_plain));
}

TEST(IdsModel, ContextualName)
{
    ErrorProfile p = ErrorProfile::uniform(0.05, 110);
    EXPECT_EQ(IdsChannelModel::contextual(p).name(), "contextual");
}

TEST(Profiler, RecoversHomopolymerMultiplier)
{
    ErrorProfile truth = ErrorProfile::uniform(0.08, 110, 1.0, 0.0,
                                               0.0);
    truth.homopolymer_mult = 3.0;
    IdsChannelModel model = IdsChannelModel::contextual(truth);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng rng(401);
    auto refs = factory.makeMany(60, 110, rng);
    FixedCoverage cov(20);
    Dataset data = sim.simulate(refs, cov, rng);

    ErrorProfiler profiler;
    ErrorProfile fitted = profiler.calibrate(data);
    EXPECT_GT(fitted.homopolymer_mult, 1.8);
    EXPECT_LT(fitted.homopolymer_mult, 4.0);
}

TEST(Profiler, UniformChannelHasUnitMultiplier)
{
    ErrorProfile truth = ErrorProfile::uniform(0.08, 110);
    IdsChannelModel model = IdsChannelModel::naive(truth);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng rng(402);
    auto refs = factory.makeMany(60, 110, rng);
    FixedCoverage cov(15);
    Dataset data = sim.simulate(refs, cov, rng);

    ErrorProfiler profiler;
    ErrorProfile fitted = profiler.calibrate(data);
    EXPECT_NEAR(fitted.homopolymer_mult, 1.0, 0.25);
}

TEST(DnaSimulator, AlgorithmOneSemantics)
{
    // Substitutions draw uniformly from all four bases, so about a
    // quarter of substitution events are silent.
    std::array<DnaSimulatorEntry, kNumBases> dict{};
    for (auto &e : dict)
        e.p_sub = 1.0;
    DnaSimulatorModel model(dict, "test");
    Strand ref(400, 'A');
    Rng rng(53);
    Strand copy = model.transmit(ref, rng);
    ASSERT_EQ(copy.size(), ref.size());
    size_t silent = 0;
    for (char c : copy)
        silent += (c == 'A') ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(silent) / 400.0, 0.25, 0.08);
}

TEST(DnaSimulator, FromProfileMatchesAggregateRate)
{
    ErrorProfile p = ErrorProfile::uniform(0.06, 110);
    auto model = DnaSimulatorModel::fromProfile(p);
    double measured = measuredErrorRate(model, 110, 500, 56);
    // Algorithm 1 wastes 1/4 of substitution events (silent), so
    // the effective rate is slightly below the profile's.
    EXPECT_NEAR(measured, 0.055, 0.01);
}

TEST(Coverage, FixedAlwaysSame)
{
    FixedCoverage cov(7);
    Rng rng(57);
    for (size_t i = 0; i < 20; ++i)
        EXPECT_EQ(cov.sample(i, rng), 7u);
    EXPECT_EQ(cov.name(), "fixed(7)");
}

TEST(Coverage, CustomPerCluster)
{
    CustomCoverage cov({3, 0, 9});
    Rng rng(58);
    EXPECT_EQ(cov.sample(0, rng), 3u);
    EXPECT_EQ(cov.sample(1, rng), 0u);
    EXPECT_EQ(cov.sample(2, rng), 9u);
}

TEST(Coverage, NegativeBinomialMeanAndCap)
{
    NegativeBinomialCoverage cov(26.97, 2.2, 164, 0.0);
    Rng rng(59);
    double acc = 0.0;
    size_t max_seen = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        size_t c = cov.sample(0, rng);
        EXPECT_LE(c, 164u);
        max_seen = std::max(max_seen, c);
        acc += static_cast<double>(c);
    }
    EXPECT_NEAR(acc / n, 26.97, 1.5);
    EXPECT_GT(max_seen, 60u); // heavy tail
}

TEST(Coverage, ErasureProbability)
{
    NegativeBinomialCoverage cov(27.0, 2.2, 0, 0.5);
    Rng rng(60);
    int zeros = 0;
    for (int i = 0; i < 2000; ++i)
        zeros += cov.sample(0, rng) == 0 ? 1 : 0;
    EXPECT_NEAR(zeros / 2000.0, 0.5, 0.05);
}

TEST(ChannelSimulator, ShapeMatchesCoverage)
{
    ErrorProfile p = ErrorProfile::uniform(0.05, 50);
    IdsChannelModel model = IdsChannelModel::naive(p);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng rng(61);
    auto refs = factory.makeMany(10, 50, rng);
    FixedCoverage cov(4);
    Dataset data = sim.simulate(refs, cov, rng);
    ASSERT_EQ(data.size(), 10u);
    for (size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(data[i].reference, refs[i]);
        EXPECT_EQ(data[i].coverage(), 4u);
    }
}

TEST(ChannelSimulator, PerClusterDeterminism)
{
    // Cluster i's data depends only on (seed, i), not on how many
    // clusters are generated.
    ErrorProfile p = ErrorProfile::uniform(0.08, 60);
    IdsChannelModel model = IdsChannelModel::naive(p);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng setup(62);
    auto refs = factory.makeMany(6, 60, setup);
    FixedCoverage cov(3);

    Rng rng_a(99);
    Dataset all = sim.simulate(refs, cov, rng_a);
    std::vector<Strand> first_three(refs.begin(), refs.begin() + 3);
    Rng rng_b(99);
    Dataset some = sim.simulate(first_three, cov, rng_b);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(all[i].copies, some[i].copies);
}

TEST(ChannelSimulator, SimulateLikeCopiesShape)
{
    ErrorProfile p = ErrorProfile::uniform(0.05, 40);
    IdsChannelModel model = IdsChannelModel::naive(p);
    ChannelSimulator sim(model);

    Dataset shape;
    StrandFactory factory;
    Rng rng(63);
    for (size_t n : {size_t(0), size_t(2), size_t(5)}) {
        Cluster c;
        c.reference = factory.make(40, rng);
        c.copies.assign(n, c.reference);
        shape.add(std::move(c));
    }
    Dataset sim_data = sim.simulateLike(shape, rng);
    ASSERT_EQ(sim_data.size(), 3u);
    EXPECT_EQ(sim_data[0].coverage(), 0u);
    EXPECT_EQ(sim_data[1].coverage(), 2u);
    EXPECT_EQ(sim_data[2].coverage(), 5u);
    EXPECT_EQ(sim_data[2].reference, shape[2].reference);
}

/** Restore the default thread count when a test scope exits. */
struct ThreadGuard
{
    explicit ThreadGuard(size_t n) { par::setThreads(n); }
    ~ThreadGuard() { par::setThreads(0); }
};

/** simulateToPool()'s outputs, read back from the pool file. */
struct PoolRun
{
    PoolSimulateResult result;
    std::vector<Strand> reads;
    std::vector<uint32_t> origins;
};

PoolRun
simulateToPoolFile(const ChannelSimulator &sim,
                   const std::vector<Strand> &refs,
                   const CoverageModel &coverage, Rng &rng,
                   const std::string &name, size_t max_reads)
{
    const std::string path =
        ::testing::TempDir() + "/dnasim_core_" + name + ".dnapool";
    PackedStrandPoolBuilder builder;
    std::string error;
    EXPECT_TRUE(builder.open(path, &error)) << error;
    std::ostringstream origins;
    PoolRun run;
    run.result = sim.simulateToPool(StrandPoolView(refs), coverage, rng,
                                    builder, &origins, max_reads);
    EXPECT_TRUE(builder.finish(&error)) << error;

    PackedStrandPool pool;
    EXPECT_TRUE(pool.open(path, &error)) << error;
    for (size_t i = 0; i < pool.size(); ++i)
        run.reads.push_back(pool.strand(i));
    const std::string bytes = origins.str();
    run.origins.resize(bytes.size() / sizeof(uint32_t));
    std::memcpy(run.origins.data(), bytes.data(),
                run.origins.size() * sizeof(uint32_t));
    std::remove(path.c_str());
    return run;
}

/** More clusters than one pool chunk, of short strands. */
struct PoolFixture
{
    ErrorProfile profile = ErrorProfile::uniform(0.06, 16);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    ChannelSimulator sim{model};
    // Mean 3 with 5% erasures: empty clusters sit among full ones.
    NegativeBinomialCoverage coverage{3.0, 2.0, 12, 0.05};
    std::vector<Strand> refs;
    Dataset expected;

    PoolFixture()
    {
        StrandFactory factory;
        Rng setup(71);
        refs = factory.makeMany(5000, 16, setup);
        Rng rng(0x9001);
        expected = sim.simulate(refs, coverage, rng);
    }
};

TEST(ChannelSimulator, PoolSimulationEqualsFlattenedSimulate)
{
    PoolFixture fx;
    std::vector<Strand> reads;
    std::vector<uint32_t> origins;
    for (size_t i = 0; i < fx.expected.size(); ++i) {
        for (const Strand &copy : fx.expected[i].copies) {
            reads.push_back(copy);
            origins.push_back(static_cast<uint32_t>(i));
        }
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
        ThreadGuard guard(threads);
        Rng rng(0x9001);
        PoolRun run = simulateToPoolFile(
            fx.sim, fx.refs, fx.coverage, rng,
            "pool_full_t" + std::to_string(threads), 0);
        EXPECT_EQ(run.reads, reads) << threads << " threads";
        EXPECT_EQ(run.origins, origins) << threads << " threads";
        EXPECT_EQ(run.result.clusters, fx.refs.size());
        EXPECT_EQ(run.result.reads, reads.size());
        EXPECT_FALSE(run.result.truncated);
    }
}

TEST(ChannelSimulator, PoolSimulationMaxReadsCutsMidCluster)
{
    PoolFixture fx;
    // Cut one read into the first multi-copy cluster of the second
    // chunk.
    size_t cut_cluster = 4100;
    while (fx.expected[cut_cluster].copies.size() < 2)
        ++cut_cluster;
    std::vector<Strand> reads;
    std::vector<uint32_t> origins;
    for (size_t i = 0; i < cut_cluster; ++i) {
        for (const Strand &copy : fx.expected[i].copies) {
            reads.push_back(copy);
            origins.push_back(static_cast<uint32_t>(i));
        }
    }
    reads.push_back(fx.expected[cut_cluster].copies[0]);
    origins.push_back(static_cast<uint32_t>(cut_cluster));

    for (size_t threads : {size_t{1}, size_t{4}}) {
        ThreadGuard guard(threads);
        Rng rng(0x9001);
        PoolRun run = simulateToPoolFile(
            fx.sim, fx.refs, fx.coverage, rng,
            "pool_cut_t" + std::to_string(threads), reads.size());
        EXPECT_EQ(run.reads, reads) << threads << " threads";
        EXPECT_EQ(run.origins, origins) << threads << " threads";
        EXPECT_TRUE(run.result.truncated);
        EXPECT_EQ(run.result.clusters, cut_cluster + 1);
        EXPECT_EQ(run.result.reads, reads.size());
    }
}

TEST(ChannelSimulator, SimulateLikeEqualsCustomCoverageSimulate)
{
    ErrorProfile p = ErrorProfile::uniform(0.08, 50);
    IdsChannelModel model = IdsChannelModel::naive(p);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng setup(64);
    Dataset shape;
    std::vector<Strand> refs;
    for (size_t n : {size_t(4), size_t(0), size_t(7), size_t(1)}) {
        Cluster c;
        c.reference = factory.make(50, setup);
        c.copies.assign(n, c.reference);
        refs.push_back(c.reference);
        shape.add(std::move(c));
    }

    Rng a(808), b(808);
    LineageLog like_log, direct_log;
    const Dataset like = sim.simulateLike(shape, a, &like_log);
    const Dataset direct = sim.simulate(
        refs, CustomCoverage(shape.coverages()), b, &direct_log);

    ASSERT_EQ(like.size(), direct.size());
    ASSERT_EQ(like_log.numClusters(), direct_log.numClusters());
    for (size_t i = 0; i < like.size(); ++i) {
        EXPECT_EQ(like[i].reference, direct[i].reference);
        EXPECT_EQ(like[i].copies, direct[i].copies);
        const ClusterLineage &x = like_log.cluster(i);
        const ClusterLineage &y = direct_log.cluster(i);
        EXPECT_EQ(x.read_event_end, y.read_event_end);
        ASSERT_EQ(x.events.size(), y.events.size());
        for (size_t e = 0; e < x.events.size(); ++e) {
            EXPECT_EQ(x.events[e].ref_pos, y.events[e].ref_pos);
            EXPECT_EQ(x.events[e].run_length, y.events[e].run_length);
            EXPECT_EQ(x.events[e].type, y.events[e].type);
            EXPECT_EQ(x.events[e].ref_base, y.events[e].ref_base);
            EXPECT_EQ(x.events[e].obs_base, y.events[e].obs_base);
        }
    }
    EXPECT_GT(like_log.totalEvents(), 0u);
}

TEST(Profiler, RecoversAggregateRates)
{
    ErrorProfile truth = ErrorProfile::uniform(0.06, 110, 0.5, 0.2,
                                               0.3);
    IdsChannelModel model = IdsChannelModel::naive(truth);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng rng(64);
    auto refs = factory.makeMany(60, 110, rng);
    FixedCoverage cov(20);
    Dataset data = sim.simulate(refs, cov, rng);

    ErrorProfiler profiler;
    ErrorProfile fitted = profiler.calibrate(data);
    EXPECT_NEAR(fitted.p_sub, truth.p_sub, 0.006);
    EXPECT_NEAR(fitted.p_ins, truth.p_ins, 0.006);
    EXPECT_NEAR(fitted.p_del, truth.p_del, 0.006);
    EXPECT_EQ(fitted.design_length, 110u);
}

TEST(Profiler, RecoversConfusionBias)
{
    // Channel that substitutes A mostly with G.
    ErrorProfile truth = ErrorProfile::uniform(0.08, 110, 1.0, 0.0,
                                               0.0);
    for (size_t r = 0; r < kNumBases; ++r)
        truth.confusion[baseIndex('A')][r] = 0.0;
    truth.confusion[baseIndex('A')][baseIndex('G')] = 0.9;
    truth.confusion[baseIndex('A')][baseIndex('C')] = 0.1;
    IdsChannelModel model = IdsChannelModel::conditional(truth);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng rng(65);
    auto refs = factory.makeMany(50, 110, rng);
    FixedCoverage cov(20);
    Dataset data = sim.simulate(refs, cov, rng);

    ErrorProfiler profiler;
    ErrorProfile fitted = profiler.calibrate(data);
    EXPECT_GT(fitted.confusion[baseIndex('A')][baseIndex('G')], 0.7);
    EXPECT_LT(fitted.confusion[baseIndex('A')][baseIndex('T')], 0.1);
}

TEST(Profiler, RecoversLongDeletions)
{
    ErrorProfile truth = ErrorProfile::uniform(0.0, 110);
    truth.p_long_del = 0.004;
    truth.long_del_len_weights = {84.0, 13.0, 1.8, 0.2, 0.02};
    IdsChannelModel model = IdsChannelModel::conditional(truth);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng rng(66);
    auto refs = factory.makeMany(80, 110, rng);
    FixedCoverage cov(25);
    Dataset data = sim.simulate(refs, cov, rng);

    ErrorProfiler profiler;
    ErrorProfile fitted = profiler.calibrate(data);
    EXPECT_NEAR(fitted.p_long_del, 0.004, 0.0015);
    EXPECT_NEAR(fitted.meanLongDeletionLength(),
                truth.meanLongDeletionLength(), 0.2);
}

TEST(Profiler, RecoversSpatialShape)
{
    ErrorProfile truth = ErrorProfile::uniform(0.10, 110)
                             .withSpatial(
                                 PositionProfile::vShaped(110));
    IdsChannelModel model = IdsChannelModel::skew(truth);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng rng(67);
    auto refs = factory.makeMany(60, 110, rng);
    FixedCoverage cov(20);
    Dataset data = sim.simulate(refs, cov, rng);

    ErrorProfiler profiler;
    ErrorProfile fitted = profiler.calibrate(data);
    double edge = fitted.spatial.multiplier(2, 110);
    double mid = fitted.spatial.multiplier(55, 110);
    EXPECT_GT(edge, 1.6 * mid);
}

TEST(Profiler, TopSecondOrderErrorsFound)
{
    // Deletion of A dominates all other error types.
    ErrorProfile truth = ErrorProfile::uniform(0.01, 110);
    truth.p_del_given[baseIndex('A')] = 0.08;
    IdsChannelModel model = IdsChannelModel::conditional(truth);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng rng(68);
    auto refs = factory.makeMany(50, 110, rng);
    FixedCoverage cov(20);
    Dataset data = sim.simulate(refs, cov, rng);

    ProfilerOptions options;
    options.top_second_order = 5;
    ErrorProfiler profiler(options);
    ErrorProfile fitted = profiler.calibrate(data);
    ASSERT_FALSE(fitted.second_order.empty());
    EXPECT_LE(fitted.second_order.size(), 5u);
    EXPECT_EQ(fitted.second_order[0].key.type, EditOpType::Delete);
    EXPECT_EQ(fitted.second_order[0].key.base, 'A');
    EXPECT_GT(fitted.second_order[0].rate, 0.04);
}

TEST(Profiler, OutlierCopiesExcluded)
{
    // A cluster with clean copies plus one alien: calibrated rates
    // should stay near zero because the alien is filtered out.
    StrandFactory factory;
    Rng rng(69);
    Cluster cluster;
    cluster.reference = factory.make(110, rng);
    for (int i = 0; i < 10; ++i)
        cluster.copies.push_back(cluster.reference);
    cluster.copies.push_back(factory.make(110, rng)); // alien
    Dataset data;
    data.add(cluster);

    ErrorProfiler profiler;
    ErrorProfile fitted = profiler.calibrate(data);
    EXPECT_LT(fitted.totalRate(), 0.01);
}

TEST(Profiler, FatalOnEmptyDataset)
{
    Dataset empty;
    ErrorProfiler profiler;
    EXPECT_THROW(profiler.calibrate(empty), FatalError);
}

TEST(Profiler, RoundTripThroughSimulator)
{
    // Calibrate a profile, simulate with it, recalibrate: the two
    // profiles should agree on the aggregate rates.
    WetlabConfig config;
    config.num_clusters = 60;
    NanoporeDatasetGenerator generator(config);
    Rng rng(70);
    Dataset real = generator.generate(rng);

    ErrorProfiler profiler;
    ErrorProfile first = profiler.calibrate(real);

    IdsChannelModel model = IdsChannelModel::secondOrder(first);
    ChannelSimulator sim(model);
    Rng rng2(71);
    Dataset simulated = sim.simulateLike(real, rng2);
    ErrorProfile second = profiler.calibrate(simulated);

    EXPECT_NEAR(second.totalRate(), first.totalRate(),
                first.totalRate() * 0.15);
}

class CalibrationRateSweep : public ::testing::TestWithParam<double>
{};

TEST_P(CalibrationRateSweep, RecoversTotalRate)
{
    const double rate = GetParam();
    ErrorProfile truth = ErrorProfile::uniform(rate, 110);
    IdsChannelModel model = IdsChannelModel::naive(truth);
    ChannelSimulator sim(model);
    StrandFactory factory;
    Rng rng(500 + static_cast<uint64_t>(rate * 1000));
    auto refs = factory.makeMany(40, 110, rng);
    FixedCoverage cov(15);
    Dataset data = sim.simulate(refs, cov, rng);

    ErrorProfiler profiler;
    ErrorProfile fitted = profiler.calibrate(data);
    EXPECT_NEAR(fitted.totalRate(), rate,
                std::max(0.004, rate * 0.12))
        << "rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, CalibrationRateSweep,
                         ::testing::Values(0.01, 0.03, 0.06, 0.09,
                                           0.12, 0.15));

TEST(Wetlab, DatasetShapeMatchesConfig)
{
    WetlabConfig config;
    config.num_clusters = 150;
    NanoporeDatasetGenerator generator(config);
    Rng rng(79);
    Dataset data = generator.generate(rng);
    auto stats = data.stats();
    EXPECT_EQ(stats.num_clusters, 150u);
    EXPECT_NEAR(stats.mean_coverage, 26.97, 5.0);
    EXPECT_LE(stats.max_coverage, 164u);
    // Aggregate error includes junk copies (aliens, truncations) on
    // top of the 5.9% structural rate.
    EXPECT_GT(stats.aggregate_error_rate, 0.05);
    EXPECT_LT(stats.aggregate_error_rate, 0.12);
}

TEST(Wetlab, Deterministic)
{
    WetlabConfig config;
    config.num_clusters = 20;
    NanoporeDatasetGenerator generator(config);
    Rng a(80), b(80);
    Dataset d1 = generator.generate(a);
    Dataset d2 = generator.generate(b);
    ASSERT_EQ(d1.size(), d2.size());
    for (size_t i = 0; i < d1.size(); ++i) {
        EXPECT_EQ(d1[i].reference, d2[i].reference);
        EXPECT_EQ(d1[i].copies, d2[i].copies);
    }
}

TEST(Wetlab, GroundTruthProfileIsConsistent)
{
    ErrorProfile p =
        NanoporeDatasetGenerator::groundTruthProfile(110, 0.059);
    EXPECT_NEAR(p.totalRate(), 0.059, 1e-9);
    EXPECT_FALSE(p.spatial.isUniform());
    EXPECT_FALSE(p.second_order.empty());
    // Confusion rows sum to 1.
    for (size_t b = 0; b < kNumBases; ++b) {
        double row = 0.0;
        for (size_t r = 0; r < kNumBases; ++r)
            row += p.confusion[b][r];
        EXPECT_NEAR(row, 1.0, 1e-9);
        EXPECT_DOUBLE_EQ(p.confusion[b][b], 0.0);
    }
    // Residual rates stay non-negative for every second-order entry.
    for (const auto &so : p.second_order) {
        if (so.key.type == EditOpType::Delete) {
            EXPECT_LE(so.rate,
                      p.p_del_given[baseIndex(so.key.base)] + 1e-12);
        }
        if (so.key.type == EditOpType::Substitute) {
            EXPECT_LE(so.rate,
                      p.p_sub_given[baseIndex(so.key.base)] + 1e-12);
        }
    }
}

TEST(Wetlab, EndHeavierThanStart)
{
    WetlabConfig config;
    config.num_clusters = 120;
    NanoporeDatasetGenerator generator(config);
    Rng rng(81);
    Dataset data = generator.generate(rng);

    // Count gestalt-aligned errors at head vs tail (the paper's
    // Fig 3.2b: end ~2x the beginning).
    size_t head = 0, tail = 0;
    Rng ops_rng(82);
    for (const auto &cluster : data) {
        for (const auto &copy : cluster.copies) {
            for (const auto &op :
                 editOps(cluster.reference, copy, &ops_rng)) {
                if (op.type == EditOpType::Equal)
                    continue;
                size_t pos = std::min(op.ref_pos,
                                      cluster.reference.size() - 1);
                if (pos <= 1)
                    ++head;
                if (pos >= cluster.reference.size() - 2)
                    ++tail;
            }
        }
    }
    EXPECT_GT(static_cast<double>(tail),
              1.3 * static_cast<double>(head));
}

} // namespace
} // namespace dnasim
