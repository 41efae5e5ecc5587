/**
 * @file
 * Tests of the deterministic parallel execution layer: coverage and
 * ordering guarantees of parallelFor/parallelTransform, exception
 * propagation, nested-region safety, and the end-to-end determinism
 * contract — simulate, reconstruct, clusterReads, archival store and
 * retrieve, and the re-clustered archival roundtrip must produce
 * byte-identical output at every thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/accuracy.hh"
#include "base/rng.hh"
#include "cluster/greedy_cluster.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"
#include "obs/stats.hh"
#include "par/thread_pool.hh"
#include "pipeline/archival_pipeline.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/iterative.hh"

namespace dnasim
{
namespace
{

/** Restore the default thread count when a test scope exits. */
struct ThreadGuard
{
    explicit ThreadGuard(size_t n) { par::setThreads(n); }
    ~ThreadGuard() { par::setThreads(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        ThreadGuard guard(threads);
        for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                         size_t{1000}}) {
            std::vector<std::atomic<int>> hits(n);
            for (auto &h : hits)
                h.store(0);
            par::parallelFor(0, n,
                             [&](size_t i) { hits[i].fetch_add(1); });
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "index " << i << " at " << threads
                    << " threads, n = " << n;
        }
    }
}

TEST(ParallelFor, RespectsBeginOffsetAndGrain)
{
    ThreadGuard guard(4);
    for (size_t grain : {size_t{1}, size_t{3}, size_t{64},
                         size_t{10000}}) {
        std::vector<std::atomic<int>> hits(500);
        for (auto &h : hits)
            h.store(0);
        par::parallelFor(
            100, 500, [&](size_t i) { hits[i].fetch_add(1); }, grain);
        for (size_t i = 0; i < 500; ++i)
            EXPECT_EQ(hits[i].load(), i < 100 ? 0 : 1)
                << "index " << i << " at grain " << grain;
    }
}

TEST(ParallelTransform, PreservesOrder)
{
    auto square = [](size_t i) { return i * i; };
    std::vector<size_t> serial;
    {
        ThreadGuard guard(1);
        serial = par::parallelTransform(777, square);
    }
    ASSERT_EQ(serial.size(), 777u);
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], i * i);
    for (size_t threads : {size_t{2}, size_t{8}}) {
        ThreadGuard guard(threads);
        EXPECT_EQ(par::parallelTransform(777, square), serial)
            << threads << " threads";
    }
}

TEST(ParallelFor, NestedRegionsDegradeToSerial)
{
    ThreadGuard guard(4);
    std::atomic<size_t> total{0};
    par::parallelFor(0, 16, [&](size_t) {
        EXPECT_TRUE(par::inParallelRegion());
        // The inner loop must run inline on this thread — no
        // deadlock, every index covered.
        par::parallelFor(0, 8,
                         [&](size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 16u * 8u);
    EXPECT_FALSE(par::inParallelRegion());
}

TEST(ParallelFor, PropagatesFirstException)
{
    for (size_t threads : {size_t{1}, size_t{4}}) {
        ThreadGuard guard(threads);
        EXPECT_THROW(
            par::parallelFor(0, 200,
                             [&](size_t i) {
                                 if (i == 117)
                                     throw std::runtime_error("boom");
                             }),
            std::runtime_error)
            << threads << " threads";
        // The pool must stay usable after a failed region.
        std::atomic<size_t> total{0};
        par::parallelFor(0, 100,
                         [&](size_t) { total.fetch_add(1); });
        EXPECT_EQ(total.load(), 100u);
    }
}

TEST(ParallelFor, RecordsObservability)
{
    ThreadGuard guard(3);
    EXPECT_EQ(par::numThreads(), 3u);
    obs::Snapshot before = obs::Registry::global().snapshot();
    par::parallelFor(0, 1000, [](size_t) {});
    obs::Snapshot after = obs::Registry::global().snapshot();
    EXPECT_EQ(after.counter("par.regions"),
              before.counter("par.regions") + 1);
    EXPECT_EQ(after.counter("par.items"),
              before.counter("par.items") + 1000);
}

TEST(ForkClusterStreams, PureFunctionOfSeedAndIndex)
{
    // Stream i forked inline from a parallel loop body must equal
    // the serial fork: it may not depend on the thread, the order
    // of forks, or draws taken from the parent — the determinism
    // contract every per-cluster loop relies on.
    ThreadGuard guard(4);
    constexpr size_t kStreams = 200;
    const Rng root(1234);
    std::vector<uint64_t> parallel(kStreams);
    par::parallelFor(0, kStreams, [&](size_t i) {
        Rng stream = root.fork(i);
        for (int k = 0; k < 16; ++k)
            parallel[i] = parallel[i] * 31 + stream.index(1 << 30);
    });
    Rng used(1234);
    for (size_t i = 0; i < kStreams; ++i) {
        used.uniform(); // parent draws must not leak into forks
        Rng stream = used.fork(i);
        uint64_t serial = 0;
        for (int k = 0; k < 16; ++k)
            serial = serial * 31 + stream.index(1 << 30);
        EXPECT_EQ(parallel[i], serial) << "stream " << i;
    }
}

/** A small calibrated channel for the end-to-end determinism tests. */
struct E2eFixture
{
    std::vector<Strand> refs;
    ErrorProfile profile = ErrorProfile::uniform(0.06, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);

    E2eFixture()
    {
        Rng rng(99);
        StrandFactory factory;
        for (size_t i = 0; i < 60; ++i)
            refs.push_back(factory.make(110, rng));
    }

    Dataset
    simulate() const
    {
        ChannelSimulator sim(model);
        FixedCoverage coverage(8);
        Rng rng(0x5eed);
        return sim.simulate(refs, coverage, rng);
    }
};

std::string
flatten(const Dataset &data)
{
    std::string s;
    for (const auto &c : data) {
        s += c.reference;
        s += '|';
        for (const auto &copy : c.copies) {
            s += copy;
            s += ';';
        }
        s += '\n';
    }
    return s;
}

TEST(Determinism, SimulateIsByteIdenticalAcrossThreadCounts)
{
    E2eFixture fx;
    std::string serial;
    {
        ThreadGuard guard(1);
        serial = flatten(fx.simulate());
    }
    for (size_t threads : {size_t{2}, size_t{8}}) {
        ThreadGuard guard(threads);
        EXPECT_EQ(flatten(fx.simulate()), serial)
            << threads << " threads";
    }
}

TEST(Determinism, ReconstructAllIsByteIdenticalAcrossThreadCounts)
{
    E2eFixture fx;
    Dataset data;
    {
        ThreadGuard guard(1);
        data = fx.simulate();
    }
    BmaLookahead algo;
    auto run = [&] {
        Rng rng(0x4ec0);
        return reconstructAll(data, algo, rng);
    };
    std::vector<Strand> serial;
    {
        ThreadGuard guard(1);
        serial = run();
    }
    for (size_t threads : {size_t{2}, size_t{8}}) {
        ThreadGuard guard(threads);
        EXPECT_EQ(run(), serial) << threads << " threads";
    }
}

TEST(Determinism, CalibrateIsIdenticalAcrossThreadCounts)
{
    E2eFixture fx;
    Dataset data;
    {
        ThreadGuard guard(1);
        data = fx.simulate();
    }
    ErrorProfiler profiler;
    std::string serial;
    {
        ThreadGuard guard(1);
        serial = profiler.calibrate(data).str();
    }
    for (size_t threads : {size_t{2}, size_t{8}}) {
        ThreadGuard guard(threads);
        EXPECT_EQ(profiler.calibrate(data).str(), serial)
            << threads << " threads";
    }
}

TEST(Determinism, ClusterReadsIsIdenticalAcrossThreadCounts)
{
    // More than three blocks of reads, so most blocks propose in
    // parallel against the clusters earlier blocks opened.
    E2eFixture fx;
    Rng ref_rng(0xb10c);
    fx.refs = StrandFactory().makeMany(400, 110, ref_rng);
    std::vector<Strand> pool;
    {
        ThreadGuard guard(1);
        pool = fx.simulate().pooledReads();
    }
    ASSERT_GT(pool.size(), 3 * kClusterBlockReads);
    std::vector<Strand> shuffled = pool;
    Rng shuffle_rng(0xb10d);
    shuffle_rng.shuffle(shuffled);
    // Byte-identical at every thread count: same clusters, same
    // member order, in cluster order and shuffled.
    ClusterOptions options;
    options.max_probes = 32;
    auto run = [&] {
        std::string s;
        for (const auto *reads : {&pool, &shuffled}) {
            for (const auto &c : clusterReads(*reads, options)) {
                s += c.representative;
                s += ':';
                for (size_t m : c.members) {
                    s += std::to_string(m);
                    s += ',';
                }
                s += '\n';
            }
        }
        return s;
    };
    std::string serial;
    {
        ThreadGuard guard(1);
        serial = run();
    }
    for (size_t threads : {size_t{2}, size_t{8}}) {
        ThreadGuard guard(threads);
        EXPECT_EQ(run(), serial) << threads << " threads";
    }
}

TEST(Determinism, ReclusteredRoundTripIsIdenticalAcrossThreadCounts)
{
    PipelineConfig config;
    config.recluster = true;
    ArchivalPipeline pipeline(config);
    Bytes file(1500);
    Rng make(0xf11e);
    for (auto &byte : file)
        byte = static_cast<uint8_t>(make.index(256));
    ErrorProfile profile =
        ErrorProfile::uniform(0.03, pipeline.strandLength());
    IdsChannelModel model = IdsChannelModel::naive(profile);
    FixedCoverage coverage(6);
    Iterative algo;
    auto run = [&] {
        Rng rng(0x7e57);
        return pipeline.roundTrip(file, model, coverage, algo, rng);
    };

    RetrievedObject serial;
    {
        ThreadGuard guard(1);
        serial = run();
    }
    EXPECT_GT(serial.stats.clusters, 0u);
    for (size_t threads : {size_t{2}, size_t{8}}) {
        ThreadGuard guard(threads);
        const RetrievedObject r = run();
        EXPECT_EQ(r.data, serial.data) << threads << " threads";
        EXPECT_EQ(r.success, serial.success);
        EXPECT_EQ(r.stats.clusters, serial.stats.clusters);
        EXPECT_EQ(r.stats.erasure_clusters,
                  serial.stats.erasure_clusters);
        EXPECT_EQ(r.stats.undecodable_strands,
                  serial.stats.undecodable_strands);
        EXPECT_EQ(r.stats.crc_failures, serial.stats.crc_failures);
        EXPECT_EQ(r.stats.frames_recovered,
                  serial.stats.frames_recovered);
        EXPECT_EQ(r.stats.stripes_failed, serial.stats.stripes_failed);
    }
}

/** Every field of a retrieval, for exact comparison. */
std::string
retrievalDigest(const RetrievedObject &r)
{
    const RetrievalStats &s = r.stats;
    std::string out(r.data.begin(), r.data.end());
    for (size_t v : {size_t{r.success}, s.clusters, s.erasure_clusters,
                     s.undecodable_strands, s.crc_failures,
                     s.frames_recovered, s.stripes_failed}) {
        out += '|';
        out += std::to_string(v);
    }
    return out;
}

TEST(Determinism, PipelineStoreAndRetrieveAreIdenticalAcrossThreadCounts)
{
    // 3000 bytes are 167 frames of 18: stripes of 32 leave a partial
    // last stripe of 7.
    Bytes file(3000);
    Rng make(0x5702e);
    for (auto &byte : file)
        byte = static_cast<uint8_t>(make.index(256));

    for (size_t parity : {size_t{0}, size_t{1}, size_t{8}}) {
        PipelineConfig config;
        config.rs_parity = parity;
        ArchivalPipeline pipeline(config);
        std::vector<Strand> serial;
        {
            ThreadGuard guard(1);
            serial = pipeline.store(file).strands;
        }
        ASSERT_EQ(serial.size(), 167 + 6 * parity);
        for (size_t threads : {size_t{2}, size_t{8}}) {
            ThreadGuard guard(threads);
            EXPECT_EQ(pipeline.store(file).strands, serial)
                << "rs_parity " << parity << " at " << threads
                << " threads";
        }
    }

    // Pseudo-clustered retrieval through every outcome: erased
    // clusters, codec and CRC rejects, frames RS rebuilds and
    // stripes beyond its budget.
    ArchivalPipeline pipeline;
    IdsChannelModel model = IdsChannelModel::naive(
        ErrorProfile::uniform(0.02, pipeline.strandLength()));
    NegativeBinomialCoverage coverage(8.0, 2.0, 0, 0.05);
    BmaLookahead bma;
    Iterative iterative;
    for (const Reconstructor *algo :
         {static_cast<const Reconstructor *>(&bma),
          static_cast<const Reconstructor *>(&iterative)}) {
        auto run = [&] {
            Rng rng(0xe7a5);
            return pipeline.roundTrip(file, model, coverage, *algo, rng);
        };
        RetrievedObject serial;
        {
            ThreadGuard guard(1);
            serial = run();
        }
        const RetrievalStats &s = serial.stats;
        EXPECT_GT(s.erasure_clusters, 0u) << algo->name();
        EXPECT_GT(s.undecodable_strands, 0u) << algo->name();
        EXPECT_GT(s.crc_failures, 0u) << algo->name();
        EXPECT_GT(s.frames_recovered, 0u) << algo->name();
        EXPECT_GT(s.stripes_failed, 0u) << algo->name();
        for (size_t threads : {size_t{2}, size_t{8}}) {
            ThreadGuard guard(threads);
            EXPECT_EQ(retrievalDigest(run()), retrievalDigest(serial))
                << algo->name() << " at " << threads << " threads";
        }
    }
}

} // namespace
} // namespace dnasim
