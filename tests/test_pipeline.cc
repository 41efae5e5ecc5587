/**
 * @file
 * Integration tests for the archival pipeline: encode -> channel ->
 * reconstruct -> decode, at no, one (XOR-group) and several parity
 * frames per stripe, under clean and noisy channels, with erasures.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/recluster.hh"
#include "codec/dna_codec.hh"
#include "codec/framing.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "obs/stats.hh"
#include "par/thread_pool.hh"
#include "pipeline/archival_pipeline.hh"
#include "reconstruct/iterative.hh"
#include "reconstruct/majority.hh"

namespace dnasim
{
namespace
{

Bytes
loremBytes(size_t n)
{
    const std::string text =
        "in dna we trust: archival storage for the long now. ";
    Bytes out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(static_cast<uint8_t>(text[i % text.size()]));
    return out;
}

TEST(Pipeline, StoreShapesLibrary)
{
    PipelineConfig config;
    config.payload_bytes = 16;
    config.rs_stripe_data = 8;
    config.rs_parity = 4;
    ArchivalPipeline pipeline(config);

    Bytes file = loremBytes(200);
    StoredObject object = pipeline.store(file);
    EXPECT_EQ(object.file_size, 200u);
    EXPECT_EQ(object.num_data_frames, 13u); // ceil(200/16)
    // Two stripes of 8 -> 2 * 4 parity frames.
    EXPECT_EQ(object.num_total_frames, 13u + 8u);
    EXPECT_EQ(object.strands.size(), object.num_total_frames);
    for (const auto &strand : object.strands) {
        EXPECT_EQ(strand.size(), pipeline.strandLength());
        EXPECT_TRUE(isValidStrand(strand));
        EXPECT_LE(maxHomopolymerRun(strand), 1u); // rotating codec
    }
}

TEST(Pipeline, CleanChannelRoundTrip)
{
    PipelineConfig config;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(300);

    ErrorProfile noiseless = ErrorProfile::uniform(0.0, 110);
    IdsChannelModel model = IdsChannelModel::naive(noiseless);
    FixedCoverage coverage(3);
    MajorityVote algo;
    Rng rng(160);
    obs::Timer &store_time =
        obs::Registry::global().timer("pipeline.store_time");
    const uint64_t stores_before = store_time.count();
    StoredObject stored;
    RetrievedObject result = pipeline.roundTrip(
        file, model, coverage, algo, rng, nullptr, nullptr, &stored);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.data, file);
    EXPECT_EQ(result.stats.crc_failures, 0u);

    // The out-param is the object of roundTrip()'s one store() call.
    EXPECT_EQ(store_time.count(), stores_before + 1);
    const StoredObject expected = pipeline.store(file);
    EXPECT_EQ(stored.strands, expected.strands);
    EXPECT_EQ(stored.file_size, expected.file_size);
    EXPECT_EQ(stored.num_data_frames, expected.num_data_frames);
    EXPECT_EQ(stored.num_total_frames, expected.num_total_frames);
}

TEST(Pipeline, NoisyChannelRoundTrip)
{
    PipelineConfig config;
    config.rs_stripe_data = 16;
    config.rs_parity = 8;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(400);

    ErrorProfile noisy = ErrorProfile::uniform(0.03, 110);
    IdsChannelModel model = IdsChannelModel::naive(noisy);
    FixedCoverage coverage(8);
    Iterative algo;
    Rng rng(161);
    RetrievedObject result =
        pipeline.roundTrip(file, model, coverage, algo, rng);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.data, file);
}

TEST(Pipeline, ReedSolomonRecoversErasures)
{
    PipelineConfig config;
    config.payload_bytes = 12;
    config.rs_stripe_data = 10;
    config.rs_parity = 4;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(240); // 20 data frames, 2 stripes

    StoredObject object = pipeline.store(file);
    // Build a clustered dataset by hand: every strand gets clean
    // copies, but a few clusters are erased entirely.
    Dataset clusters;
    for (size_t i = 0; i < object.strands.size(); ++i) {
        Cluster c;
        c.reference = object.strands[i];
        if (i != 3 && i != 11) // two erasures, different stripes
            c.copies.assign(3, object.strands[i]);
        clusters.add(std::move(c));
    }
    MajorityVote algo;
    Rng rng(162);
    RetrievedObject result =
        pipeline.retrieve(clusters, algo, object, rng);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.data, file);
    EXPECT_EQ(result.stats.erasure_clusters, 2u);
    EXPECT_EQ(result.stats.frames_recovered, 2u);
}

TEST(Pipeline, ReedSolomonFailsBeyondBudget)
{
    PipelineConfig config;
    config.payload_bytes = 12;
    config.rs_stripe_data = 10;
    config.rs_parity = 2;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(120); // 10 data frames, one stripe

    StoredObject object = pipeline.store(file);
    Dataset clusters;
    for (size_t i = 0; i < object.strands.size(); ++i) {
        Cluster c;
        c.reference = object.strands[i];
        if (i > 3) // erase 4 frames: beyond 2 parity
            c.copies.assign(2, object.strands[i]);
        clusters.add(std::move(c));
    }
    MajorityVote algo;
    Rng rng(163);
    RetrievedObject result =
        pipeline.retrieve(clusters, algo, object, rng);
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.stats.stripes_failed, 1u);
}

/**
 * A clustered read-out of @p object with two clean copies of every
 * strand except the indices in @p lost, which are erased.
 */
Dataset
cleanReadout(const StoredObject &object, std::vector<size_t> lost)
{
    Dataset clusters;
    for (size_t i = 0; i < object.strands.size(); ++i) {
        Cluster c;
        c.reference = object.strands[i];
        if (std::find(lost.begin(), lost.end(), i) == lost.end())
            c.copies.assign(2, object.strands[i]);
        clusters.add(std::move(c));
    }
    return clusters;
}

/** One parity frame per stripe: Bornholt et al.'s XOR groups. */
PipelineConfig
xorGroupConfig(size_t group)
{
    PipelineConfig config;
    config.payload_bytes = 10;
    config.rs_stripe_data = group;
    config.rs_parity = 1;
    return config;
}

TEST(Pipeline, XorSchemeRecoversSingleLossPerGroup)
{
    ArchivalPipeline pipeline(xorGroupConfig(4));
    Bytes file = loremBytes(120); // 12 data frames, 3 groups

    StoredObject object = pipeline.store(file);
    EXPECT_EQ(object.num_total_frames, 12u + 3u);
    // One loss in each group.
    Dataset clusters = cleanReadout(object, {1, 6, 9});
    MajorityVote algo;
    Rng rng(164);
    RetrievedObject result =
        pipeline.retrieve(clusters, algo, object, rng);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.data, file);
    EXPECT_EQ(result.stats.frames_recovered, 3u);
}

TEST(Pipeline, XorSchemeFailsOnDoubleLossInAGroup)
{
    ArchivalPipeline pipeline(xorGroupConfig(3));
    Bytes file = loremBytes(90); // 9 data frames, 3 groups

    StoredObject object = pipeline.store(file);
    // Two losses in group 0 are beyond one parity frame; the single
    // loss in group 2 is still rebuilt.
    Dataset clusters = cleanReadout(object, {0, 1, 7});
    MajorityVote algo;
    Rng rng(169);
    RetrievedObject result =
        pipeline.retrieve(clusters, algo, object, rng);
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.stats.stripes_failed, 1u);
    EXPECT_EQ(result.stats.frames_recovered, 1u);
}

TEST(Pipeline, XorSchemeLostParityIsHarmless)
{
    ArchivalPipeline pipeline(xorGroupConfig(2));
    Bytes file = loremBytes(40); // 4 data frames, 2 groups

    StoredObject object = pipeline.store(file);
    ASSERT_EQ(object.num_total_frames, 4u + 2u);
    // Both parity frames (indices 4 and 5) lost, every data frame
    // present.
    Dataset clusters = cleanReadout(object, {4, 5});
    MajorityVote algo;
    Rng rng(170);
    RetrievedObject result =
        pipeline.retrieve(clusters, algo, object, rng);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.data, file);
    EXPECT_EQ(result.stats.frames_recovered, 0u);
    EXPECT_EQ(result.stats.stripes_failed, 0u);
}

TEST(Pipeline, XorSchemeParityFrameIsByteXorOfItsGroup)
{
    const PipelineConfig config = xorGroupConfig(3);
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(73); // 8 data frames: groups of 3, 3, 2

    StoredObject object = pipeline.store(file);
    FrameCodec frames(config.payload_bytes, config.index_bytes);
    const std::vector<Frame> data = frames.split(file);
    ASSERT_EQ(data.size(), 8u);
    ASSERT_EQ(object.num_total_frames, 8u + 3u);
    RotatingCodec codec;
    for (size_t group = 0; group < 3; ++group) {
        auto raw = codec.decode(object.strands[8 + group],
                                frames.frameBytes());
        ASSERT_TRUE(raw.has_value());
        auto parity = frames.unpack(*raw);
        ASSERT_TRUE(parity.has_value());
        EXPECT_EQ(parity->index, 8u + group);
        // The short last group is zero-padded, which XOR ignores.
        Bytes expected(config.payload_bytes, 0);
        for (size_t i = 3 * group; i < std::min<size_t>(8, 3 * group + 3);
             ++i)
            for (size_t b = 0; b < expected.size(); ++b)
                expected[b] ^= data[i].payload[b];
        EXPECT_EQ(parity->payload, expected) << "group " << group;
    }
}

TEST(Pipeline, NoRedundancyCannotRecover)
{
    PipelineConfig config;
    config.rs_parity = 0;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(100);

    StoredObject object = pipeline.store(file);
    EXPECT_EQ(object.num_total_frames, object.num_data_frames);
    Dataset clusters = cleanReadout(object, {0});
    MajorityVote algo;
    Rng rng(165);
    RetrievedObject result =
        pipeline.retrieve(clusters, algo, object, rng);
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.stats.stripes_failed, 0u);
}

TEST(Pipeline, DuplicateFrameIndexFirstClusterWins)
{
    // A CRC-valid strand for frame 0 with another payload: retrieve()
    // keeps whichever of the two clusters comes first, at any thread
    // count.
    PipelineConfig config;
    config.rs_parity = 0;
    ArchivalPipeline pipeline(config);
    const Bytes file = loremBytes(100); // 6 frames
    const StoredObject object = pipeline.store(file);
    const Dataset genuine = cleanReadout(object, {});

    FrameCodec frames(config.payload_bytes, config.index_bytes);
    Frame forged_frame{0, Bytes(config.payload_bytes, 'X')};
    Cluster forged;
    forged.reference =
        RotatingCodec().encode(frames.pack(forged_frame));
    forged.copies.assign(2, forged.reference);
    Bytes forged_file = file;
    std::fill_n(forged_file.begin(), config.payload_bytes, 'X');

    Dataset forged_first;
    forged_first.add(forged);
    for (const Cluster &c : genuine)
        forged_first.add(c);
    Dataset forged_last = genuine;
    forged_last.add(forged);

    MajorityVote algo;
    for (size_t threads : {size_t{1}, size_t{8}}) {
        par::setThreads(threads);
        Rng rng(171);
        const RetrievedObject first =
            pipeline.retrieve(forged_first, algo, object, rng);
        EXPECT_TRUE(first.success) << threads << " threads";
        EXPECT_EQ(first.data, forged_file) << threads << " threads";
        const RetrievedObject last =
            pipeline.retrieve(forged_last, algo, object, rng);
        EXPECT_TRUE(last.success) << threads << " threads";
        EXPECT_EQ(last.data, file) << threads << " threads";
    }
    par::setThreads(0);
}

TEST(Pipeline, ForgedFrameIsCorrectedOrReported)
{
    // A CRC-valid strand for frame 0 with another payload, in the
    // first cluster so it keeps the index. Every stripe is decoded
    // for errors too: two or more parity frames locate and correct
    // the wrong frame, one only detects it, and without parity the
    // frame CRC is the only check, so the wrong bytes come back.
    struct Case
    {
        size_t parity;
        std::vector<size_t> lost;
        bool success;
        bool intact;
        size_t recovered;
        size_t corrected;
        size_t failed;
    };
    const Case cases[] = {
        {0, {}, true, false, 0, 0, 0},
        {1, {}, false, false, 0, 0, 1},
        {2, {}, true, true, 0, 1, 0},
        {8, {}, true, true, 0, 1, 0},
        // One erasure and one error need 2 + 1 parity symbols.
        {2, {3}, false, false, 0, 0, 1},
        {3, {3}, true, true, 1, 1, 0},
    };
    const Bytes file = loremBytes(100); // 6 frames, one stripe
    MajorityVote algo;
    for (const Case &c : cases) {
        PipelineConfig config;
        config.rs_parity = c.parity;
        ArchivalPipeline pipeline(config);
        const StoredObject object = pipeline.store(file);
        FrameCodec frames(config.payload_bytes, config.index_bytes);
        Cluster forged;
        forged.reference = RotatingCodec().encode(
            frames.pack(Frame{0, Bytes(config.payload_bytes, 'X')}));
        forged.copies.assign(2, forged.reference);
        Dataset clusters;
        clusters.add(forged);
        for (const Cluster &g : cleanReadout(object, c.lost))
            clusters.add(g);

        for (size_t threads : {size_t{1}, size_t{8}}) {
            par::setThreads(threads);
            const std::string what = "parity " + std::to_string(c.parity) +
                                     ", " + std::to_string(c.lost.size()) +
                                     " lost, " + std::to_string(threads) +
                                     " threads";
            Rng rng(172);
            const RetrievedObject r =
                pipeline.retrieve(clusters, algo, object, rng);
            EXPECT_EQ(r.success, c.success) << what;
            EXPECT_EQ(r.data == file, c.intact) << what;
            EXPECT_EQ(r.stats.frames_recovered, c.recovered) << what;
            EXPECT_EQ(r.stats.frames_corrected, c.corrected) << what;
            EXPECT_EQ(r.stats.stripes_failed, c.failed) << what;
        }
    }
    par::setThreads(0);
}

TEST(Pipeline, StagedReclusteredRunEqualsRoundTrip)
{
    // roundTrip() is store -> simulate on fork(0xc4a) -> the
    // pool-and-recluster path on fork(0x5eed) -> retrieve on
    // fork(0xdec0de); a caller timing the stages one by one gets the
    // very same retrieval.
    PipelineConfig config;
    config.recluster = true;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(900);
    ErrorProfile profile =
        ErrorProfile::uniform(0.02, pipeline.strandLength());
    IdsChannelModel model = IdsChannelModel::naive(profile);
    FixedCoverage coverage(6);
    Iterative algo;

    Rng rng(0xbe11);
    const RetrievedObject whole =
        pipeline.roundTrip(file, model, coverage, algo, rng);

    Rng staged_rng(0xbe11);
    const StoredObject object = pipeline.store(file);
    Rng channel_rng = staged_rng.fork(0xc4a);
    const Dataset simulated = ChannelSimulator(model).simulate(
        object.strands, coverage, channel_rng);
    Rng shuffle_rng = staged_rng.fork(0x5eed);
    const Dataset clusters =
        poolAndRecluster(simulated, config.cluster, shuffle_rng)
            .regrouped();
    Rng decode_rng = staged_rng.fork(0xdec0de);
    const RetrievedObject staged =
        pipeline.retrieve(clusters, algo, object, decode_rng);

    EXPECT_TRUE(whole.success);
    EXPECT_EQ(staged.data, whole.data);
    EXPECT_EQ(staged.success, whole.success);
    EXPECT_EQ(staged.stats.clusters, whole.stats.clusters);
    EXPECT_EQ(staged.stats.erasure_clusters,
              whole.stats.erasure_clusters);
    EXPECT_EQ(staged.stats.undecodable_strands,
              whole.stats.undecodable_strands);
    EXPECT_EQ(staged.stats.crc_failures, whole.stats.crc_failures);
    EXPECT_EQ(staged.stats.frames_recovered,
              whole.stats.frames_recovered);
    EXPECT_EQ(staged.stats.stripes_failed, whole.stats.stripes_failed);
}

TEST(Pipeline, EmptyFileRoundTrip)
{
    ArchivalPipeline pipeline;
    Bytes file;
    ErrorProfile noiseless = ErrorProfile::uniform(0.0, 110);
    IdsChannelModel model = IdsChannelModel::naive(noiseless);
    FixedCoverage coverage(2);
    MajorityVote algo;
    Rng rng(167);
    RetrievedObject result =
        pipeline.roundTrip(file, model, coverage, algo, rng);
    EXPECT_TRUE(result.success);
    EXPECT_TRUE(result.data.empty());
}

/** Parity frames per stripe in a sweep case. */
enum class Parity
{
    None,   ///< rs_parity 0
    Xor,    ///< one parity frame per group of 5
    Stripe, ///< six parity frames per stripe of 16
};

struct PipelineCase
{
    Parity parity;
    size_t coverage;
    double error_rate;
    bool expect_success;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineCase>
{};

TEST_P(PipelineSweep, RoundTripMatrix)
{
    auto [parity, coverage_n, error_rate, expect_success] =
        GetParam();
    PipelineConfig config;
    config.rs_stripe_data = parity == Parity::Xor ? 5 : 16;
    config.rs_parity = parity == Parity::None  ? 0
                       : parity == Parity::Xor ? 1
                                               : 6;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(350);

    ErrorProfile profile =
        ErrorProfile::uniform(error_rate, pipeline.strandLength());
    IdsChannelModel model = IdsChannelModel::naive(profile);
    FixedCoverage coverage(coverage_n);
    Iterative algo;
    Rng rng(900 + coverage_n);
    RetrievedObject result =
        pipeline.roundTrip(file, model, coverage, algo, rng);
    EXPECT_EQ(result.success, expect_success)
        << "parity=" << static_cast<int>(parity)
        << " coverage=" << coverage_n << " rate=" << error_rate;
    if (expect_success) {
        EXPECT_EQ(result.data, file);
    }
}

// gtest names these cases by their parameter's bytes. A static table
// is zero-initialized, padding included, so the names are the same
// in every build.
const PipelineCase kPipelineCases[] = {
    // Clean channel: every parity budget succeeds at minimal coverage.
    {Parity::None, 1, 0.0, true},
    {Parity::Xor, 1, 0.0, true},
    {Parity::Stripe, 1, 0.0, true},
    // Moderate noise, decent coverage: RS and XOR succeed.
    {Parity::Stripe, 8, 0.03, true},
    {Parity::Xor, 8, 0.02, true},
    // Heavy noise at coverage 1: reconstruction of nearly every
    // strand is wrong and no parity budget can absorb that.
    {Parity::Stripe, 1, 0.08, false},
};

INSTANTIATE_TEST_SUITE_P(Matrix, PipelineSweep,
                         ::testing::ValuesIn(kPipelineCases));

TEST(Pipeline, CorruptedStrandCountsAsCrcFailure)
{
    PipelineConfig config;
    config.payload_bytes = 12;
    config.rs_stripe_data = 10;
    config.rs_parity = 4;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(120);

    StoredObject object = pipeline.store(file);
    Dataset clusters;
    for (size_t i = 0; i < object.strands.size(); ++i) {
        Cluster c;
        c.reference = object.strands[i];
        Strand copy = object.strands[i];
        if (i == 2) {
            // Corrupt one base in every copy -> reconstruction is
            // wrong -> CRC (or the rotating codec) rejects it.
            copy[10] = copy[10] == 'A' ? 'C' : 'A';
            copy[11] = copy[11] == 'G' ? 'T' : 'G';
        }
        c.copies.assign(3, copy);
        clusters.add(std::move(c));
    }
    MajorityVote algo;
    Rng rng(168);
    RetrievedObject result =
        pipeline.retrieve(clusters, algo, object, rng);
    EXPECT_TRUE(result.success); // RS rebuilt the rejected frame
    EXPECT_EQ(result.data, file);
    EXPECT_EQ(result.stats.crc_failures +
                  result.stats.undecodable_strands,
              1u);
    EXPECT_EQ(result.stats.frames_recovered, 1u);
}

} // namespace
} // namespace dnasim
