/**
 * @file
 * Committed golden digests of the channel's outputs and of the Rng's
 * sample streams.
 *
 * The other determinism tests compare runs only with each other, so a
 * change that shifts every output the same way at every thread count
 * passes them. These pin the absolute bytes: each digest is an FNV-64
 * over a fixed-seed output, computed once and committed.
 *
 * Update flow: a mismatch prints the new digest. Change a constant
 * only for a change that is meant to alter the drawn numbers, and say
 * why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/dnasimulator_model.hh"
#include "core/ids_model.hh"
#include "core/lineage_log.hh"
#include "core/profiler.hh"
#include "core/tech_profiles.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"
#include "par/thread_pool.hh"

namespace dnasim
{
namespace
{

/** FNV-1a, 64-bit, fed field by field (never struct padding). */
class Fnv64
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    pod(T value)
    {
        bytes(&value, sizeof(value));
    }

    void
    str(std::string_view s)
    {
        pod(static_cast<uint64_t>(s.size()));
        bytes(s.data(), s.size());
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Fails with the digest to commit when @p actual drifts. */
void
expectDigest(const std::string &what, uint64_t actual, uint64_t golden)
{
    EXPECT_EQ(actual, golden)
        << what << ": new digest " << hex(actual) << ", golden "
        << hex(golden);
}

uint64_t
datasetDigest(const Dataset &data)
{
    Fnv64 h;
    h.pod(static_cast<uint64_t>(data.size()));
    for (const Cluster &c : data.clusters()) {
        h.str(c.reference);
        h.pod(static_cast<uint64_t>(c.copies.size()));
        for (const Strand &copy : c.copies)
            h.str(copy);
    }
    return h.value();
}

uint64_t
lineageDigest(const LineageLog &log)
{
    Fnv64 h;
    h.pod(static_cast<uint64_t>(log.numClusters()));
    for (size_t i = 0; i < log.numClusters(); ++i) {
        const ClusterLineage &c = log.cluster(i);
        h.pod(static_cast<uint64_t>(c.events.size()));
        for (const LineageEvent &e : c.events) {
            h.pod(e.ref_pos);
            h.pod(e.run_length);
            h.pod(static_cast<uint8_t>(e.type));
            h.pod(e.ref_base);
            h.pod(e.obs_base);
        }
        for (uint32_t end : c.read_event_end)
            h.pod(end);
    }
    return h.value();
}

/** Restore the default thread count when a test scope exits. */
struct ThreadGuard
{
    explicit ThreadGuard(size_t n) { par::setThreads(n); }
    ~ThreadGuard() { par::setThreads(0); }
};

constexpr size_t kThreadCounts[] = {1, 8};

/** The profile the paper's ladder calibrates from a wetlab run. */
const ErrorProfile &
calibratedProfile()
{
    static const ErrorProfile profile = [] {
        WetlabConfig config;
        config.num_clusters = 50;
        NanoporeDatasetGenerator generator(config);
        Rng rng(0x9e4);
        return ErrorProfiler().calibrate(generator.generate(rng));
    }();
    return profile;
}

std::vector<Strand>
references(size_t count, size_t len, uint64_t seed)
{
    Rng rng(seed);
    return StrandFactory().makeMany(count, len, rng);
}

struct ChannelDigests
{
    uint64_t data = 0;
    uint64_t lineage = 0;
};

/**
 * simulate() @p refs at threads 1 and 8, lineage off and on. Every
 * run must produce the same dataset, and every recorded run the same
 * events; returns their digests.
 */
ChannelDigests
simulateDigests(const ErrorModel &model, const std::vector<Strand> &refs,
                const CoverageModel &coverage, uint64_t seed)
{
    ChannelSimulator sim(model);
    ChannelDigests first;
    bool have_first = false;
    for (size_t threads : kThreadCounts) {
        ThreadGuard guard(threads);
        Rng plain_rng(seed);
        const uint64_t plain =
            datasetDigest(sim.simulate(refs, coverage, plain_rng));
        Rng logged_rng(seed);
        LineageLog log;
        const uint64_t logged = datasetDigest(
            sim.simulate(refs, coverage, logged_rng, &log));
        EXPECT_EQ(plain, logged)
            << model.name() << ": lineage changed the data at "
            << threads << " threads";
        const ChannelDigests d{plain, lineageDigest(log)};
        if (!have_first) {
            first = d;
            have_first = true;
            continue;
        }
        EXPECT_EQ(d.data, first.data)
            << model.name() << " data at " << threads << " threads";
        EXPECT_EQ(d.lineage, first.lineage)
            << model.name() << " lineage at " << threads << " threads";
    }
    return first;
}

void
expectChannel(const std::string &what, const ChannelDigests &d,
              uint64_t golden_data, uint64_t golden_lineage)
{
    expectDigest(what + " data", d.data, golden_data);
    expectDigest(what + " lineage", d.lineage, golden_lineage);
}

TEST(Golden, CalibratedLadderModels)
{
    const ErrorProfile &profile = calibratedProfile();
    ASSERT_EQ(profile.design_length, 110u);
    const auto refs = references(48, 110, 0x901d);
    FixedCoverage coverage(6);
    expectChannel("naive",
                  simulateDigests(IdsChannelModel::naive(profile), refs,
                                  coverage, 0x51),
                  0x951a96c173ee4992,
                  0xee023dea3e9f7088);
    expectChannel("conditional",
                  simulateDigests(IdsChannelModel::conditional(profile),
                                  refs, coverage, 0x52),
                  0xf4a3315c6bf6a91d,
                  0x7c0a64228ceb0fb4);
    expectChannel("skew",
                  simulateDigests(IdsChannelModel::skew(profile), refs,
                                  coverage, 0x53),
                  0xfeae59530c0ce6a1,
                  0xe4c389d4e47189a3);
    expectChannel("second-order",
                  simulateDigests(IdsChannelModel::secondOrder(profile),
                                  refs, coverage, 0x54),
                  0x4fd73cabf04ddde5,
                  0x57a61fda13ff7a15);
    expectChannel("contextual",
                  simulateDigests(IdsChannelModel::contextual(profile),
                                  refs, coverage, 0x55),
                  0x637380dd488e966a,
                  0xd55321946805936b);
}

TEST(Golden, OffDesignLengthUsesRatesAt)
{
    // References shorter than the profile's design length take the
    // per-position fallback (spatial profiles rescaled by relative
    // position), under Poisson-mixture coverage.
    const ErrorProfile &profile = calibratedProfile();
    const auto refs = references(40, 97, 0x97);
    NegativeBinomialCoverage coverage(7.0, 2.2, 30, 0.05);
    expectChannel("second-order @97",
                  simulateDigests(IdsChannelModel::secondOrder(profile),
                                  refs, coverage, 0x56),
                  0xebb9293c739a144b,
                  0x86677d65728924e2);
    expectChannel("contextual @97",
                  simulateDigests(IdsChannelModel::contextual(profile),
                                  refs, coverage, 0x57),
                  0xc2e6cb3d4561a2cf,
                  0x53b91e3aab5d01b2);
}

TEST(Golden, RoundtripFullModel)
{
    // The archival roundtrip's channel.
    IdsChannelModel model = IdsChannelModel::full(
        NanoporeDatasetGenerator::groundTruthProfile(130, 0.04));
    const auto refs = references(48, 130, 0x130);
    FixedCoverage coverage(8);
    expectChannel("full(130, 0.04)",
                  simulateDigests(model, refs, coverage, 0x58),
                  0x32d7e614afee6508,
                  0x50e0940c3162ece0);
}

TEST(Golden, DnaSimulatorModel)
{
    DnaSimulatorModel model =
        DnaSimulatorModel::fromProfile(calibratedProfile());
    const auto refs = references(48, 110, 0xd5);
    FixedCoverage coverage(6);
    expectChannel("dnasimulator",
                  simulateDigests(model, refs, coverage, 0x59),
                  0x5837cbbb1a3f0cdf,
                  0x2ed70b7d533754d6);
}

TEST(Golden, StagedChannelAndWetlab)
{
    const auto refs = references(30, 110, 0x57a9);
    for (size_t threads : kThreadCounts) {
        ThreadGuard guard(threads);
        StagedChannel channel = makeArchivalChannel(
            SequencerGeneration::Nanopore, 110, refs.size(), 8.0,
            /*storage_years=*/50.0);
        Rng rng(0x5a);
        expectDigest("multistage @" + std::to_string(threads),
                     datasetDigest(channel.run(refs, rng)),
                     0x819abc417269c802);

        WetlabConfig config;
        config.num_clusters = 40;
        Rng wet_rng(0x5b);
        expectDigest("wetlab @" + std::to_string(threads),
                     datasetDigest(NanoporeDatasetGenerator(config)
                                       .generate(wet_rng)),
                     0x666f7c0e5f229877);
    }
}

/**
 * Digest a sampler's output over @p draws draws from each of a fixed
 * seed and its first fork children.
 */
template <typename Draw>
uint64_t
streamDigest(uint64_t seed, size_t draws, Draw draw)
{
    Fnv64 h;
    Rng root(seed);
    for (size_t i = 0; i < draws; ++i)
        draw(root, h);
    for (uint64_t salt = 0; salt < 8; ++salt) {
        Rng child = root.fork(salt);
        for (size_t i = 0; i < draws / 16 + 1; ++i)
            draw(child, h);
    }
    return h.value();
}

TEST(Golden, RngStreams)
{
    expectDigest("uniform",
                 streamDigest(0x600d, 1000000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.uniform()));
                              }),
                 0x1e86b739bc2ddee8);
    const struct
    {
        size_t n;
        uint64_t golden;
    } index_goldens[] = {{2, 0x77914c17d5bc92a4},
                         {3, 0x6ba69ba054a21067},
                         {4, 0x86e72bdfb840cda4},
                         {7, 0x7758edd8d63bd203},
                         {1000, 0x4bc48727d0c94453}};
    for (const auto &[n, golden] : index_goldens) {
        expectDigest("index(" + std::to_string(n) + ")",
                     streamDigest(0x1d + n, 20000,
                                  [n](Rng &r, Fnv64 &h) {
                                      h.pod(static_cast<uint64_t>(
                                          r.index(n)));
                                  }),
                     golden);
    }
    expectDigest("uniformInt",
                 streamDigest(0x1e, 20000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(r.uniformInt(-5, 5));
                                  h.pod(r.uniformInt(0, INT64_MAX));
                              }),
                 0x16d96d790175d38c);
    expectDigest("uniform(lo, hi)",
                 streamDigest(0x10, 20000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.uniform(-3.5, 7.25)));
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.uniform(0.0, 1e-3)));
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.uniform(2.0, 2.0)));
                              }),
                 0x36194a67086c528f);
    expectDigest("shuffle",
                 streamDigest(0x5f, 2,
                              [](Rng &r, Fnv64 &h) {
                                  std::vector<uint32_t> v(10000);
                                  std::iota(v.begin(), v.end(), 0u);
                                  r.shuffle(v);
                                  h.bytes(v.data(),
                                          v.size() * sizeof(v[0]));
                              }),
                 0xb00ab80909fcce81);
    expectDigest("gaussian",
                 streamDigest(0x6a, 20000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(std::bit_cast<uint64_t>(
                                      r.gaussian(1.5, 2.0)));
                              }),
                 0x6e33a9ec65baa4fa);
    expectDigest("poisson",
                 streamDigest(0x70, 5000,
                              [](Rng &r, Fnv64 &h) {
                                  for (double lambda : {0.5, 4.0, 30.0,
                                                        200.0})
                                      h.pod(r.poisson(lambda));
                              }),
                 0xb1a368a46218a60e);
    expectDigest("binomial",
                 streamDigest(0xb1, 5000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(r.binomial(10, 0.3));
                                  h.pod(r.binomial(1000, 0.02));
                                  h.pod(r.binomial(50, 0.9));
                              }),
                 0xbfc28a778814cdf4);
    expectDigest("negativeBinomial",
                 streamDigest(0xb2, 5000,
                              [](Rng &r, Fnv64 &h) {
                                  h.pod(r.negativeBinomial(2.0,
                                                           2.0 / 29.0));
                                  h.pod(r.negativeBinomial(0.7, 0.1));
                              }),
                 0x422fb3cc790c056a);
    expectDigest("discrete",
                 streamDigest(0xd1, 20000,
                              [](Rng &r, Fnv64 &h) {
                                  const double w[] = {1.0, 0.0, 3.0,
                                                      0.5};
                                  h.pod(static_cast<uint64_t>(
                                      r.discrete(w)));
                              }),
                 0x5f904a5a2aec9f87);
}

} // anonymous namespace
} // namespace dnasim
