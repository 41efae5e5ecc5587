/**
 * @file
 * Microbenchmarks of the observability layer itself: the cost of a
 * counter increment and a histogram/timer/distribution record on the
 * hot path, and the cost of lineage recording in the channel.
 */

#include <benchmark/benchmark.h>

#include "bench_report.hh"
#include "core/ids_model.hh"
#include "core/lineage_log.hh"
#include "data/strand_factory.hh"
#include "obs/hdr_histogram.hh"
#include "obs/stats.hh"

using namespace dnasim;

namespace
{

void
BM_CounterInc(benchmark::State &state)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("bench.counter");
    for (auto _ : state)
        c.inc();
    benchmark::DoNotOptimize(c.value());
    state.SetItemsProcessed(state.iterations());
}

void
BM_HistogramRecord(benchmark::State &state)
{
    obs::HdrHistogram h;
    uint64_t v = 1;
    for (auto _ : state) {
        h.record(v);
        v = v * 3 / 2 + 1;
        if (v > (1ull << 34))
            v = 1;
    }
    benchmark::DoNotOptimize(h.count());
    state.SetItemsProcessed(state.iterations());
}

void
BM_TimerRecord(benchmark::State &state)
{
    obs::Registry reg;
    obs::Timer &t = reg.timer("bench.timer");
    uint64_t ns = 100;
    for (auto _ : state) {
        t.record(ns);
        ns = ns * 3 / 2 + 1;
        if (ns > 60'000'000'000ull)
            ns = 100;
    }
    benchmark::DoNotOptimize(t.count());
    state.SetItemsProcessed(state.iterations());
}

void
BM_DistributionRecord(benchmark::State &state)
{
    obs::Registry reg;
    obs::Distribution &d = reg.distribution("bench.dist");
    uint64_t v = 1;
    for (auto _ : state) {
        d.record(v);
        v = (v * 7 + 3) & 0xffff;
    }
    benchmark::DoNotOptimize(d.count());
    state.SetItemsProcessed(state.iterations());
}

/**
 * Channel transmit with lineage recording off (arg 0) and on
 * (arg 1). The delta between the two rows is the whole cost of the
 * ground-truth error log: one branch plus a push_back per injected
 * event, amortized over the full per-base transmit loop.
 */
void
BM_LineageRecord(benchmark::State &state)
{
    const bool record = state.range(0) != 0;
    StrandFactory factory;
    Rng make(1);
    const Strand ref = factory.make(120, make);
    ErrorProfile profile = ErrorProfile::uniform(0.08, 120);
    IdsChannelModel model = IdsChannelModel::secondOrder(profile);
    Rng rng(42);
    std::vector<LineageEvent> events;
    LineageRecorder rec(&events);
    size_t bases = 0;
    for (auto _ : state) {
        events.clear();
        Strand read = record ? model.transmit(ref, rng, rec)
                             : model.transmit(ref, rng);
        bases += read.size();
        benchmark::DoNotOptimize(read.data());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(static_cast<int64_t>(bases));
}

} // anonymous namespace

BENCHMARK(BM_CounterInc);
BENCHMARK(BM_HistogramRecord);
BENCHMARK(BM_TimerRecord);
BENCHMARK(BM_DistributionRecord);
BENCHMARK(BM_LineageRecord)->Arg(0)->Arg(1);
