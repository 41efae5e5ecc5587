/**
 * @file
 * Microbenchmarks of read clustering: shuffled read pools at
 * realistic sizes, exercising the anchor-bucket probing (transparent
 * string_view lookup) and the batched candidate-distance probes, the
 * roundtrip workload's 71k-read re-cluster pool, plus large-N
 * scaling rows of the MinHash sketch index (10k/50k/200k
 * reads, purity recorded). Results funnel into
 * BENCH_perf_cluster.json; compare rows across --threads values for
 * the scaling curve.
 */

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <vector>

#include <benchmark/benchmark.h>

#include "base/strand_pool.hh"
#include "bench_report.hh"
#include "cluster/greedy_cluster.hh"
#include "cluster/shard_cluster.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"
#include "pipeline/archival_pipeline.hh"

using namespace dnasim;

namespace
{

/**
 * A shuffled pool of noisy reads from @p clusters references at
 * @p coverage copies each — the simulator's perfectly clustered
 * output flattened into the unordered pool a real pipeline sees.
 * When @p origins is non-null it receives the true origin of each
 * pooled read (for purity scoring).
 */
std::vector<Strand>
makePool(size_t clusters, size_t coverage, uint64_t salt,
         std::vector<size_t> *origins = nullptr,
         double error_rate = 0.06)
{
    Rng rng = benchRng(salt);
    StrandFactory factory;
    std::vector<Strand> refs;
    refs.reserve(clusters);
    for (size_t i = 0; i < clusters; ++i)
        refs.push_back(factory.make(110, rng));

    ErrorProfile profile = ErrorProfile::uniform(error_rate, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    ChannelSimulator sim(model);
    FixedCoverage cov(coverage);
    Dataset data = sim.simulate(refs, cov, rng);

    std::vector<Strand> pool;
    pool.reserve(clusters * coverage);
    for (const auto &cluster : data)
        for (const auto &copy : cluster.copies)
            pool.push_back(copy);
    // Interleave so consecutive reads come from different clusters —
    // the anchor buckets, not input order, have to do the work.
    std::vector<Strand> shuffled(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
        size_t j = (i % coverage) * clusters + i / coverage;
        shuffled[j] = std::move(pool[i]);
    }
    if (origins) {
        origins->resize(shuffled.size());
        for (size_t i = 0; i < shuffled.size(); ++i) {
            size_t j = (i % coverage) * clusters + i / coverage;
            (*origins)[j] = i / coverage;
        }
    }
    return shuffled;
}

void
BM_ClusterReads(benchmark::State &state)
{
    const auto clusters = static_cast<size_t>(state.range(0));
    std::vector<Strand> pool = makePool(clusters, 8, 0xc1);
    ClusterOptions options;
    size_t reads = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(clusterReads(pool, options));
        reads += pool.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(reads));
}

void
BM_ClusterReadsWideProbe(benchmark::State &state)
{
    // Stress the candidate-probe loop: a 64-candidate budget and a
    // long anchor make deep probe lists, verified in batched chunks.
    const auto clusters = static_cast<size_t>(state.range(0));
    std::vector<Strand> pool = makePool(clusters, 8, 0xc2);
    ClusterOptions options;
    options.max_probes = 64;
    options.anchor_length = 20;
    size_t reads = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(clusterReads(pool, options));
        reads += pool.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(reads));
}

/**
 * The roundtrip workload's re-clustered pass: a 100 KiB payload
 * stored by the archival pipeline, sent through the 1 % IDS channel
 * at coverage 10 and shuffled — about 71k reads, some 70 blocks of
 * the placement loop, so the row shows the parallel propose phase
 * that the few-block BM_ClusterReads rows cannot.
 */
void
BM_ClusterReadsRoundtripPool(benchmark::State &state)
{
    Rng rng = benchRng(0xc6);
    Bytes payload(100 * 1024);
    for (uint8_t &byte : payload)
        byte = static_cast<uint8_t>(rng.index(256));
    ArchivalPipeline pipeline;
    const StoredObject object = pipeline.store(payload);
    IdsChannelModel model = IdsChannelModel::full(
        NanoporeDatasetGenerator::groundTruthProfile(
            pipeline.strandLength(), 0.01));
    std::vector<Strand> pool =
        ChannelSimulator(model)
            .simulate(object.strands, FixedCoverage(10), rng)
            .pooledReads();
    rng.shuffle(pool);
    const ClusterOptions options = pipeline.config().cluster;
    size_t reads = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(clusterReads(pool, options));
        reads += pool.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(reads));
    state.counters["reads"] = static_cast<double>(pool.size());
}

/**
 * Large-N scaling of the sketch index. The pools use a 3% error rate
 * so the default distance gate actually accepts same-origin reads,
 * and the probe budget is sized for large-N recall (max_probes=256);
 * the sketch tier proposes a handful of targeted band collisions per
 * read and never comes near the cap. The purity of each clustering
 * is recorded as a metric so the speed rows double as quality
 * evidence (EXPERIMENTS.md scaling table). The rows keep the
 * "sketch" name and metric tags they had when a greedy recency-scan
 * row ran beside them, so they still pair with bench/baselines.
 */
void
BM_ClusterScaling(benchmark::State &state)
{
    const auto clusters = static_cast<size_t>(state.range(0));
    std::vector<size_t> origins;
    std::vector<Strand> pool =
        makePool(clusters, 8, 0xc3, &origins, 0.03);
    ClusterOptions options;
    options.max_probes = 256;
    size_t reads = 0;
    double purity = 0.0;
    double found = 0.0;
    for (auto _ : state) {
        std::vector<ReadCluster> result = clusterReads(pool, options);
        benchmark::DoNotOptimize(result);
        reads += pool.size();
        state.PauseTiming();
        purity = scoreClustering(result, origins).purity();
        found = static_cast<double>(result.size());
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<int64_t>(reads));
    state.counters["purity"] = purity;
    state.counters["clusters"] = found;
    const std::string tag = "_sketch_" + std::to_string(pool.size());
    BenchReport::global().addMetric("purity" + tag, purity);
    BenchReport::global().addMetric("clusters" + tag, found);
}

/**
 * The out-of-core path end to end minus simulation: reads live in an
 * mmap-backed pool file (built once per row through simulateToPool,
 * exactly what `dnasim simulate --checkpoint-dir` ships, so read
 * order is cluster order) and the sharded sketch index clusters
 * through the StrandPoolView. range(0) is the reference count at
 * coverage 8, range(1) the shard count. Rows carry
 * rss_high_water_bytes in the report (perf_main resets VmHWM per
 * row), which is the statistic the benchdiff memory gate consumes;
 * the 1M/10M-read rows only register when DNASIM_BENCH_SCALE is set
 * so default runs stay quick.
 */
void
BM_ClusterScalingPool(benchmark::State &state)
{
    const auto clusters = static_cast<size_t>(state.range(0));
    const auto shards = static_cast<size_t>(state.range(1));

    Rng rng = benchRng(0xc5);
    StrandFactory factory;
    std::vector<Strand> refs;
    refs.reserve(clusters);
    for (size_t i = 0; i < clusters; ++i)
        refs.push_back(factory.make(110, rng));
    ErrorProfile profile = ErrorProfile::uniform(0.03, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    ChannelSimulator sim(model);
    FixedCoverage cov(8);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("dnasim_perf_pool_" + std::to_string(clusters) +
          ".dnapool"))
            .string();
    std::ostringstream origin_bytes;
    {
        PackedStrandPoolBuilder builder;
        std::string error;
        if (!builder.open(path, &error)) {
            state.SkipWithError(error.c_str());
            return;
        }
        sim.simulateToPool(StrandPoolView(refs), cov, rng, builder,
                           &origin_bytes);
        if (!builder.finish(&error)) {
            state.SkipWithError(error.c_str());
            return;
        }
    }
    const std::string bytes = origin_bytes.str();
    std::vector<size_t> origins(bytes.size() / 4);
    for (size_t i = 0; i < origins.size(); ++i) {
        const auto *p =
            reinterpret_cast<const unsigned char *>(bytes.data()) +
            i * 4;
        origins[i] = static_cast<size_t>(p[0]) |
                     static_cast<size_t>(p[1]) << 8 |
                     static_cast<size_t>(p[2]) << 16 |
                     static_cast<size_t>(p[3]) << 24;
    }

    PackedStrandPool pool;
    std::string error;
    if (!pool.open(path, &error)) {
        state.SkipWithError(error.c_str());
        return;
    }
    StrandPoolView view(pool);

    ClusterOptions options;
    options.max_probes = 256;
    size_t reads = 0;
    double purity = 0.0;
    double found = 0.0;
    for (auto _ : state) {
        std::vector<ReadCluster> result =
            clusterReadsSharded(view, options, shards);
        benchmark::DoNotOptimize(result);
        reads += view.size();
        state.PauseTiming();
        purity = scoreClustering(result, origins).purity();
        found = static_cast<double>(result.size());
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<int64_t>(reads));
    state.counters["purity"] = purity;
    state.counters["clusters"] = found;
    state.counters["shards"] = static_cast<double>(shards);
    const size_t pool_reads = view.size();
    pool.close();
    std::filesystem::remove(path);
    const std::string tag =
        "_pool_" + std::to_string(pool_reads) + "_s" +
        std::to_string(shards);
    BenchReport::global().addMetric("purity" + tag, purity);
    BenchReport::global().addMetric("clusters" + tag, found);
}

/** True when DNASIM_BENCH_SCALE asks for the 1M/10M-read rows. */
bool
benchScaleEnabled()
{
    const char *e = std::getenv("DNASIM_BENCH_SCALE");
    return e != nullptr && *e != '\0' &&
           std::string(e) != "0";
}

const bool scaling_pool_registered = [] {
    auto *bench = benchmark::RegisterBenchmark(
        "BM_ClusterScalingPool", BM_ClusterScalingPool);
    // 1250/6250/25000 references at coverage 8 = 10k/50k/200k reads,
    // mirroring the in-RAM BM_ClusterScaling rows for the parity
    // comparison in EXPERIMENTS.md.
    bench->Args({1250, 4})->Args({6250, 4})->Args({25000, 4});
    if (benchScaleEnabled()) {
        // 1M and 10M reads; only on request — the 10M row simulates
        // ~1.1G bases into the pool file before the timed section.
        bench->Args({125000, 8})->Args({1250000, 16});
    }
    bench->Unit(benchmark::kMillisecond)->UseRealTime();
    return true;
}();

} // anonymous namespace

BENCHMARK(BM_ClusterReads)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ClusterReadsWideProbe)->Arg(200)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ClusterReadsRoundtripPool)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
// 1250/6250/25000 references at coverage 8 = 10k/50k/200k reads.
BENCHMARK(BM_ClusterScaling)->Name("BM_ClusterScaling/sketch")
    ->Arg(1250)->Arg(6250)->Arg(25000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
