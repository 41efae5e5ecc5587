/**
 * @file
 * Microbenchmarks of the channel: the Rng draws it makes per base and
 * per cluster, transmission throughput per model variant, wetlab
 * generation, and profile calibration.
 */

#include <benchmark/benchmark.h>

#include "bench_report.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/dnasimulator_model.hh"
#include "core/ids_model.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"

using namespace dnasim;

namespace
{

ErrorProfile
calibratedProfile()
{
    WetlabConfig config;
    config.num_clusters = 50;
    NanoporeDatasetGenerator generator(config);
    Rng rng = benchRng(0x9e4);
    Dataset data = generator.generate(rng);
    ErrorProfiler profiler;
    return profiler.calibrate(data);
}

const ErrorProfile &
profile()
{
    static const ErrorProfile p = calibratedProfile();
    return p;
}

void
transmitLoop(benchmark::State &state, const ErrorModel &model,
             size_t len = 110)
{
    Rng rng = benchRng(0x77);
    StrandFactory factory;
    Strand ref = factory.make(len, rng);
    size_t bases = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.transmit(ref, rng));
        bases += ref.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(bases));
}

/** One uniform() draw: the channel makes one or two per base. */
void
BM_RngUniform(benchmark::State &state)
{
    Rng rng = benchRng(0x7b);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniform());
    state.SetItemsProcessed(state.iterations());
}

/** A per-cluster stream: fork (a full engine seeding) + first draw. */
void
BM_RngFork(benchmark::State &state)
{
    const Rng rng = benchRng(0x7c);
    uint64_t salt = 0;
    for (auto _ : state) {
        Rng child = rng.fork(salt++);
        benchmark::DoNotOptimize(child.uniform());
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_TransmitNaive(benchmark::State &state)
{
    IdsChannelModel model = IdsChannelModel::naive(profile());
    transmitLoop(state, model);
}

void
BM_TransmitConditional(benchmark::State &state)
{
    IdsChannelModel model = IdsChannelModel::conditional(profile());
    transmitLoop(state, model);
}

void
BM_TransmitSecondOrder(benchmark::State &state)
{
    IdsChannelModel model = IdsChannelModel::secondOrder(profile());
    transmitLoop(state, model);
}

/**
 * The archival roundtrip's channel: every feature, homopolymer
 * context included, on design-length strands.
 */
void
BM_TransmitFull(benchmark::State &state)
{
    IdsChannelModel model = IdsChannelModel::full(
        NanoporeDatasetGenerator::groundTruthProfile(130, 0.04));
    transmitLoop(state, model, 130);
}

void
BM_TransmitDnaSimulator(benchmark::State &state)
{
    DnaSimulatorModel model =
        DnaSimulatorModel::fromProfile(profile());
    transmitLoop(state, model);
}

void
BM_SimulateCluster(benchmark::State &state)
{
    IdsChannelModel model = IdsChannelModel::secondOrder(profile());
    ChannelSimulator sim(model);
    Rng rng = benchRng(0x78);
    StrandFactory factory;
    Strand ref = factory.make(110, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.simulateCluster(
            ref, static_cast<size_t>(state.range(0)), rng));
    }
}

/**
 * Dataset-scale simulation: many clusters through simulate(), the
 * loop parallelized by --threads. This is the thread-scaling probe —
 * compare BENCH_perf_channel.json rows across --threads values.
 */
void
BM_SimulateDataset(benchmark::State &state)
{
    IdsChannelModel model = IdsChannelModel::secondOrder(profile());
    ChannelSimulator sim(model);
    Rng rng = benchRng(0x79);
    StrandFactory factory;
    std::vector<Strand> refs;
    const auto clusters = static_cast<size_t>(state.range(0));
    refs.reserve(clusters);
    for (size_t i = 0; i < clusters; ++i)
        refs.push_back(factory.make(110, rng));
    FixedCoverage coverage(10);
    size_t strands = 0;
    for (auto _ : state) {
        Rng r = benchRng(0x7a);
        benchmark::DoNotOptimize(sim.simulate(refs, coverage, r));
        strands += clusters * 10;
    }
    state.SetItemsProcessed(static_cast<int64_t>(strands));
}

void
BM_Calibrate(benchmark::State &state)
{
    WetlabConfig config;
    config.num_clusters = static_cast<size_t>(state.range(0));
    NanoporeDatasetGenerator generator(config);
    Rng rng = benchRng(0x9e5);
    Dataset data = generator.generate(rng);
    ErrorProfiler profiler;
    for (auto _ : state)
        benchmark::DoNotOptimize(profiler.calibrate(data));
}

} // anonymous namespace

BENCHMARK(BM_RngUniform);
BENCHMARK(BM_RngFork);
BENCHMARK(BM_TransmitNaive);
BENCHMARK(BM_TransmitConditional);
BENCHMARK(BM_TransmitSecondOrder);
BENCHMARK(BM_TransmitFull);
BENCHMARK(BM_TransmitDnaSimulator);
BENCHMARK(BM_SimulateCluster)->Arg(5)->Arg(27);
BENCHMARK(BM_SimulateDataset)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Calibrate)->Arg(20)->Unit(benchmark::kMillisecond);
// The paper-ladder input size: many accumulator chunks to merge.
BENCHMARK(BM_Calibrate)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
