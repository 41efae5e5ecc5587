/**
 * @file
 * Microbenchmarks of the trace-reconstruction algorithms at
 * realistic cluster sizes, plus the two kernels under BMA and
 * Iterative: the BMA forward pass and one aligned-consensus round.
 * The single-cluster rows repeat one cluster; the *Set rows walk
 * 1,000 distinct clusters per iteration, so branch predictors see
 * real data, and report ns per base-copy.
 */

#include <algorithm>

#include <benchmark/benchmark.h>

#include "analysis/accuracy.hh"
#include "bench_report.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/consensus.hh"
#include "reconstruct/divider_bma.hh"
#include "reconstruct/iterative.hh"
#include "reconstruct/majority.hh"
#include "reconstruct/twoway_iterative.hh"

using namespace dnasim;

namespace
{

std::vector<Strand>
makeCluster(size_t coverage, double error_rate, Rng &rng)
{
    StrandFactory factory;
    Strand ref = factory.make(110, rng);
    ErrorProfile profile = ErrorProfile::uniform(error_rate, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    std::vector<Strand> copies;
    copies.reserve(coverage);
    for (size_t i = 0; i < coverage; ++i)
        copies.push_back(model.transmit(ref, rng));
    return copies;
}

void
reconstructLoop(benchmark::State &state, const Reconstructor &algo)
{
    Rng rng = benchRng(0x4ec);
    auto copies = makeCluster(static_cast<size_t>(state.range(0)),
                              0.06, rng);
    for (auto _ : state) {
        Rng r = benchRng(42);
        benchmark::DoNotOptimize(algo.reconstruct(copies, 110, r));
    }
}

void
BM_Majority(benchmark::State &state)
{
    MajorityVote algo;
    reconstructLoop(state, algo);
}

void
BM_Bma(benchmark::State &state)
{
    BmaLookahead algo;
    reconstructLoop(state, algo);
}

void
BM_DividerBma(benchmark::State &state)
{
    DividerBma algo;
    reconstructLoop(state, algo);
}

void
BM_Iterative(benchmark::State &state)
{
    Iterative algo;
    reconstructLoop(state, algo);
}

void
BM_TwoWayIterative(benchmark::State &state)
{
    TwoWayIterative algo;
    reconstructLoop(state, algo);
}

/**
 * A cluster from the roundtrip's own channel, full(groundTruthProfile
 * (130, 0.04)), for the layer rows below.
 */
std::vector<Strand>
makeRoundtripCluster(size_t coverage, Rng &rng)
{
    StrandFactory factory;
    Strand ref = factory.make(130, rng);
    IdsChannelModel model = IdsChannelModel::full(
        NanoporeDatasetGenerator::groundTruthProfile(130, 0.04));
    std::vector<Strand> copies;
    copies.reserve(coverage);
    for (size_t i = 0; i < coverage; ++i)
        copies.push_back(model.transmit(ref, rng));
    return copies;
}

/** One BMA forward pass: the BMA and Iterative-seed kernel. */
void
BM_BmaForwardPass(benchmark::State &state)
{
    Rng rng = benchRng(0x4ef);
    auto copies =
        makeRoundtripCluster(static_cast<size_t>(state.range(0)), rng);
    for (auto _ : state) {
        Rng r = benchRng(43);
        benchmark::DoNotOptimize(
            BmaLookahead::forwardPass(copies, 130, r));
    }
}

/** A fixed set of distinct clusters of one design length. */
struct ClusterSet
{
    std::vector<std::vector<Strand>> clusters;
    size_t design_len = 0;
    size_t base_copies = 0; ///< copy bases over the whole set
};

constexpr size_t kSetClusters = 1000;

ClusterSet
finishSet(std::vector<std::vector<Strand>> clusters, size_t design_len)
{
    ClusterSet set{std::move(clusters), design_len, 0};
    for (const auto &copies : set.clusters)
        for (const Strand &copy : copies)
            set.base_copies += copy.size();
    return set;
}

/** The roundtrip's channel at its coverage, 8. */
const ClusterSet &
roundtripSet()
{
    static const ClusterSet set = [] {
        Rng rng = benchRng(0x4f2);
        std::vector<std::vector<Strand>> clusters;
        for (size_t i = 0; i < kSetClusters; ++i)
            clusters.push_back(makeRoundtripCluster(8, rng));
        return finishSet(std::move(clusters), 130);
    }();
    return set;
}

/**
 * The ladder's shape: wetlab clusters with at least 10 copies, cut
 * to their first 6 (Dataset::fixedCoverage(6, 10)).
 */
const ClusterSet &
wetlabSet()
{
    static const ClusterSet set = [] {
        WetlabConfig config;
        config.num_clusters = 1400;
        Rng rng = benchRng(0x4f3);
        const Dataset fixed = NanoporeDatasetGenerator(config)
                                  .generate(rng)
                                  .fixedCoverage(6, 10);
        std::vector<std::vector<Strand>> clusters;
        for (size_t i = 0; i < std::min(fixed.size(), kSetClusters); ++i)
            clusters.push_back(fixed[i].copies);
        return finishSet(std::move(clusters), config.strand_length);
    }();
    return set;
}

/**
 * Run @p run over every cluster of @p set per iteration, each with
 * its own fork(i) of one Rng, and report ns per base-copy.
 */
template <typename Run>
void
walkSet(benchmark::State &state, const ClusterSet &set, Run run)
{
    const Rng rng = benchRng(0x4f4);
    for (auto _ : state) {
        for (size_t i = 0; i < set.clusters.size(); ++i) {
            Rng r = rng.fork(i);
            benchmark::DoNotOptimize(run(set.clusters[i], set.design_len, r));
        }
    }
    state.counters["ns_per_base_copy"] = benchmark::Counter(
        static_cast<double>(set.base_copies) * 1e-9,
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

void
BM_BmaForwardPassSet(benchmark::State &state, const ClusterSet &(*set)())
{
    walkSet(state, set(), BmaLookahead::forwardPass);
}

void
reconstructSet(benchmark::State &state, const ClusterSet &set,
               const Reconstructor &algo)
{
    walkSet(state, set,
            [&algo](const std::vector<Strand> &copies, size_t len,
                    Rng &r) { return algo.reconstruct(copies, len, r); });
}

void
BM_BmaSet(benchmark::State &state, const ClusterSet &(*set)())
{
    reconstructSet(state, set(), BmaLookahead());
}

void
BM_IterativeSet(benchmark::State &state, const ClusterSet &(*set)())
{
    reconstructSet(state, set(), Iterative());
}

/**
 * One Iterative refinement round against the forward-pass seed: an
 * edit-script walk per copy voted into the consensus arrays.
 */
void
BM_AlignedConsensus(benchmark::State &state)
{
    Rng rng = benchRng(0x4f0);
    auto copies =
        makeRoundtripCluster(static_cast<size_t>(state.range(0)), rng);
    Rng seed_rng = benchRng(44);
    const Strand estimate =
        BmaLookahead::forwardPass(copies, 130, seed_rng);
    for (auto _ : state) {
        Rng r = benchRng(45);
        benchmark::DoNotOptimize(alignedConsensus(estimate, copies, r));
    }
}

/**
 * Dataset-scale reconstruction: reconstructAll() over many clusters,
 * parallelized by --threads — the thread-scaling probe for
 * BENCH_perf_reconstruct.json.
 */
void
BM_ReconstructAll(benchmark::State &state)
{
    Rng rng = benchRng(0x4ed);
    StrandFactory factory;
    const auto clusters = static_cast<size_t>(state.range(0));
    std::vector<Strand> refs;
    refs.reserve(clusters);
    for (size_t i = 0; i < clusters; ++i)
        refs.push_back(factory.make(110, rng));
    ErrorProfile profile = ErrorProfile::uniform(0.06, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    ChannelSimulator sim(model);
    FixedCoverage coverage(10);
    Dataset data = sim.simulate(refs, coverage, rng);
    BmaLookahead algo;
    size_t done = 0;
    for (auto _ : state) {
        Rng r = benchRng(0x4ee);
        benchmark::DoNotOptimize(reconstructAll(data, algo, r));
        done += clusters;
    }
    state.SetItemsProcessed(static_cast<int64_t>(done));
}

} // anonymous namespace

BENCHMARK(BM_Majority)->Arg(5)->Arg(27);
BENCHMARK(BM_Bma)->Arg(5)->Arg(27);
BENCHMARK(BM_DividerBma)->Arg(5)->Arg(27);
BENCHMARK(BM_Iterative)->Arg(5)->Arg(27)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TwoWayIterative)->Arg(5)->Arg(27)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BmaForwardPass)->Arg(8)->Arg(27)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BmaForwardPassSet, roundtrip, roundtripSet)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BmaForwardPassSet, wetlab, wetlabSet)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BmaSet, roundtrip, roundtripSet)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BmaSet, wetlab, wetlabSet)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_IterativeSet, roundtrip, roundtripSet)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_IterativeSet, wetlab, wetlabSet)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AlignedConsensus)->Arg(8)->Arg(27)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReconstructAll)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
