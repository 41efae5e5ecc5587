/**
 * @file
 * Integration tests for the archival pipeline: encode -> channel ->
 * reconstruct -> decode, with each redundancy scheme, under clean
 * and noisy channels, with erasures.
 */

#include <gtest/gtest.h>

#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "obs/stats.hh"
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
    config.redundancy = RedundancyScheme::ReedSolomon;
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

TEST(Pipeline, XorSchemeRecoversSingleLossPerGroup)
{
    PipelineConfig config;
    config.payload_bytes = 10;
    config.redundancy = RedundancyScheme::XorGroups;
    config.xor_group = 4;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(120); // 12 data frames, 3 groups

    StoredObject object = pipeline.store(file);
    EXPECT_EQ(object.num_total_frames, 12u + 3u);
    Dataset clusters;
    for (size_t i = 0; i < object.strands.size(); ++i) {
        Cluster c;
        c.reference = object.strands[i];
        if (i != 1 && i != 6 && i != 9) // one loss in each group
            c.copies.assign(2, object.strands[i]);
        clusters.add(std::move(c));
    }
    MajorityVote algo;
    Rng rng(164);
    RetrievedObject result =
        pipeline.retrieve(clusters, algo, object, rng);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.data, file);
    EXPECT_EQ(result.stats.frames_recovered, 3u);
}

TEST(Pipeline, NoRedundancyCannotRecover)
{
    PipelineConfig config;
    config.redundancy = RedundancyScheme::None;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(100);

    StoredObject object = pipeline.store(file);
    EXPECT_EQ(object.num_total_frames, object.num_data_frames);
    Dataset clusters;
    for (size_t i = 0; i < object.strands.size(); ++i) {
        Cluster c;
        c.reference = object.strands[i];
        if (i != 0)
            c.copies.assign(2, object.strands[i]);
        clusters.add(std::move(c));
    }
    MajorityVote algo;
    Rng rng(165);
    RetrievedObject result =
        pipeline.retrieve(clusters, algo, object, rng);
    EXPECT_FALSE(result.success);
}

TEST(Pipeline, TrivialCodecVariant)
{
    PipelineConfig config;
    config.rotating_codec = false;
    ArchivalPipeline pipeline(config);
    Bytes file = loremBytes(150);

    ErrorProfile noiseless = ErrorProfile::uniform(0.0, 110);
    IdsChannelModel model = IdsChannelModel::naive(noiseless);
    FixedCoverage coverage(1);
    MajorityVote algo;
    Rng rng(166);
    RetrievedObject result =
        pipeline.roundTrip(file, model, coverage, algo, rng);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.data, file);
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

struct PipelineCase
{
    RedundancyScheme scheme;
    size_t coverage;
    double error_rate;
    bool expect_success;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineCase>
{};

TEST_P(PipelineSweep, RoundTripMatrix)
{
    auto [scheme, coverage_n, error_rate, expect_success] =
        GetParam();
    PipelineConfig config;
    config.redundancy = scheme;
    config.rs_stripe_data = 16;
    config.rs_parity = 6;
    config.xor_group = 5;
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
        << "scheme=" << static_cast<int>(scheme)
        << " coverage=" << coverage_n << " rate=" << error_rate;
    if (expect_success) {
        EXPECT_EQ(result.data, file);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineSweep,
    ::testing::Values(
        // Clean channel: every scheme succeeds at minimal coverage.
        PipelineCase{RedundancyScheme::None, 1, 0.0, true},
        PipelineCase{RedundancyScheme::XorGroups, 1, 0.0, true},
        PipelineCase{RedundancyScheme::ReedSolomon, 1, 0.0, true},
        // Moderate noise, decent coverage: RS and XOR succeed.
        PipelineCase{RedundancyScheme::ReedSolomon, 8, 0.03, true},
        PipelineCase{RedundancyScheme::XorGroups, 8, 0.02, true},
        // Heavy noise at coverage 1: reconstruction of nearly every
        // strand is wrong and no scheme can absorb that.
        PipelineCase{RedundancyScheme::ReedSolomon, 1, 0.08,
                     false}));

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
