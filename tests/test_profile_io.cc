/**
 * @file
 * Round-trip and robustness tests for ErrorProfile serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/logging.hh"
#include "core/ids_model.hh"
#include "core/profile_io.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"

namespace dnasim
{
namespace
{

ErrorProfile
richProfile()
{
    // A calibrated profile from a small wetlab run: exercises every
    // field, including spatial and second-order tables.
    WetlabConfig config;
    config.num_clusters = 40;
    NanoporeDatasetGenerator generator(config);
    Rng rng(0x10f);
    Dataset data = generator.generate(rng);
    ErrorProfiler profiler;
    return profiler.calibrate(data);
}

void
expectProfilesClose(const ErrorProfile &a, const ErrorProfile &b)
{
    EXPECT_EQ(a.design_length, b.design_length);
    EXPECT_NEAR(a.p_sub, b.p_sub, 1e-9);
    EXPECT_NEAR(a.p_ins, b.p_ins, 1e-9);
    EXPECT_NEAR(a.p_del, b.p_del, 1e-9);
    EXPECT_NEAR(a.p_long_del, b.p_long_del, 1e-9);
    EXPECT_NEAR(a.homopolymer_mult, b.homopolymer_mult, 1e-9);
    for (size_t i = 0; i < kNumBases; ++i) {
        EXPECT_NEAR(a.p_sub_given[i], b.p_sub_given[i], 1e-9);
        EXPECT_NEAR(a.p_ins_given[i], b.p_ins_given[i], 1e-9);
        EXPECT_NEAR(a.p_del_given[i], b.p_del_given[i], 1e-9);
        EXPECT_NEAR(a.insert_base[i], b.insert_base[i], 1e-9);
        for (size_t r = 0; r < kNumBases; ++r)
            EXPECT_NEAR(a.confusion[i][r], b.confusion[i][r], 1e-9);
    }
    ASSERT_EQ(a.long_del_len_weights.size(),
              b.long_del_len_weights.size());
    ASSERT_EQ(a.spatial.length(), b.spatial.length());
    for (size_t i = 0; i < a.spatial.length(); ++i) {
        EXPECT_NEAR(a.spatial.multiplier(i, a.spatial.length()),
                    b.spatial.multiplier(i, b.spatial.length()),
                    1e-4);
    }
    ASSERT_EQ(a.second_order.size(), b.second_order.size());
    for (size_t i = 0; i < a.second_order.size(); ++i) {
        EXPECT_EQ(a.second_order[i].key, b.second_order[i].key);
        EXPECT_NEAR(a.second_order[i].rate, b.second_order[i].rate,
                    1e-9);
        EXPECT_EQ(a.second_order[i].count, b.second_order[i].count);
    }
}

TEST(ProfileIo, RoundTripRichProfile)
{
    ErrorProfile original = richProfile();
    std::ostringstream out;
    writeProfile(original, out);
    std::istringstream in(out.str());
    ErrorProfile parsed = readProfile(in);
    expectProfilesClose(original, parsed);
}

TEST(ProfileIo, RoundTripMinimalProfile)
{
    ErrorProfile original = ErrorProfile::uniform(0.06, 110);
    std::ostringstream out;
    writeProfile(original, out);
    std::istringstream in(out.str());
    ErrorProfile parsed = readProfile(in);
    expectProfilesClose(original, parsed);
    EXPECT_TRUE(parsed.spatial.isUniform());
    EXPECT_TRUE(parsed.second_order.empty());
}

TEST(ProfileIo, ParsedProfileDrivesSimulator)
{
    // A profile restored from text must behave identically in the
    // channel: compare transmissions under the same seed.
    ErrorProfile original = richProfile();
    std::ostringstream out;
    writeProfile(original, out);
    std::istringstream in(out.str());
    ErrorProfile parsed = readProfile(in);

    IdsChannelModel m1 = IdsChannelModel::secondOrder(original);
    IdsChannelModel m2 = IdsChannelModel::secondOrder(parsed);
    Strand ref(110, 'A');
    for (size_t i = 0; i < ref.size(); ++i)
        ref[i] = kBaseChars[i % kNumBases];
    // Rates are nearly identical, so a statistical comparison is
    // enough (exact equality would require bit-identical doubles).
    Rng r1(5), r2(5);
    size_t d1 = 0, d2 = 0;
    for (int t = 0; t < 200; ++t) {
        d1 += m1.transmit(ref, r1).size();
        d2 += m2.transmit(ref, r2).size();
    }
    EXPECT_NEAR(static_cast<double>(d1), static_cast<double>(d2),
                0.01 * static_cast<double>(d1));
}

TEST(ProfileIo, FileRoundTrip)
{
    ErrorProfile original = ErrorProfile::uniform(0.05, 80);
    std::string path =
        ::testing::TempDir() + "/dnasim_profile_test.txt";
    writeProfileFile(original, path);
    ErrorProfile parsed = readProfileFile(path);
    expectProfilesClose(original, parsed);
    std::remove(path.c_str());
}

TEST(ProfileIo, RejectsGarbage)
{
    std::istringstream not_a_profile("hello world\n");
    EXPECT_THROW(readProfile(not_a_profile), FatalError);

    std::istringstream empty("");
    EXPECT_THROW(readProfile(empty), FatalError);
}

TEST(ProfileIo, RejectsWrongVersion)
{
    std::istringstream in("dnasim-profile 99\nend\n");
    EXPECT_THROW(readProfile(in), FatalError);
}

TEST(ProfileIo, RejectsTruncated)
{
    ErrorProfile original = ErrorProfile::uniform(0.05, 80);
    std::ostringstream out;
    writeProfile(original, out);
    std::string text = out.str();
    // Drop the 'end' terminator.
    text.resize(text.rfind("end"));
    std::istringstream in(text);
    EXPECT_THROW(readProfile(in), FatalError);
}

TEST(ProfileIo, RejectsUnknownKey)
{
    std::istringstream in(
        "dnasim-profile 1\nflux_capacitor 88\nend\n");
    EXPECT_THROW(readProfile(in), FatalError);
}

/**
 * A valid serialized profile with the line keyed @p key replaced by
 * @p line (inserted before "end" when the profile has none).
 */
std::string
profileWithLine(const std::string &key, const std::string &line)
{
    std::ostringstream out;
    writeProfile(ErrorProfile::uniform(0.05, 80), out);
    std::string text = out.str();
    size_t at = text.find("\n" + key + " ");
    if (at == std::string::npos) {
        text.insert(text.rfind("end\n"), line + "\n");
        return text;
    }
    ++at;
    text.replace(at, text.find('\n', at) - at, line);
    return text;
}

void
expectRejected(const std::string &key, const std::string &line)
{
    std::istringstream in(profileWithLine(key, line));
    EXPECT_THROW(readProfile(in), FatalError) << line;
}

TEST(ProfileIo, RejectsOutOfRangeDesignLength)
{
    // The channel sizes a per-position rate table by design_length.
    expectRejected("design_length", "design_length 0");
    expectRejected("design_length",
                   "design_length " +
                       std::to_string(ErrorProfile::kMaxDesignLength + 1));
    expectRejected("design_length", "design_length 18446744073709551615");

    std::istringstream largest(profileWithLine(
        "design_length",
        "design_length " +
            std::to_string(ErrorProfile::kMaxDesignLength)));
    EXPECT_EQ(readProfile(largest).design_length,
              ErrorProfile::kMaxDesignLength);
}

TEST(ProfileIo, RejectsVectorLengthBeyondItsLine)
{
    // Used to allocate 4e12 doubles and throw std::bad_alloc.
    expectRejected("long_del", "long_del 0.1 4000000000000");
    expectRejected("long_del", "long_del 0.1 3 84 13");
    expectRejected("spatial", "spatial 1000000000000000000 1");

    std::istringstream exact(
        profileWithLine("long_del", "long_del 0.001 3 84 13 3"));
    EXPECT_EQ(readProfile(exact).long_del_len_weights.size(), 3u);
}

TEST(ProfileIo, RejectsProbabilitiesOutsideUnitInterval)
{
    // "aggregate 0.5 -3 7" used to be accepted and reported as an
    // aggregate error of 0.00%.
    expectRejected("aggregate", "aggregate 0.5 -3 7");
    expectRejected("aggregate", "aggregate 0.01 0.01 1.5");
    expectRejected("conditional",
                   "conditional 0.01 0.01 0.01 0.01 0.01 0.01 0.01 -0.01 "
                   "0.01 0.01 0.01 0.01");
    expectRejected("conditional",
                   "conditional 0.01 0.01 0.01 0.01 2 0.01 0.01 0.01 "
                   "0.01 0.01 0.01 0.01");
    expectRejected("long_del", "long_del -0.1 0");
    expectRejected("long_del", "long_del 1.5 0");
    expectRejected("second_order", "second_order sub A C 2.5 10 0");
    expectRejected("second_order", "second_order del G - -0.2 10 0");
    expectRejected("confusion", "confusion A 0 -0.2 0.6 0.6");
    expectRejected("insert_base", "insert_base 0.25 0.25 0.25 7");
}

TEST(ProfileIo, RejectsNegativeVectorValues)
{
    expectRejected("spatial", "spatial 3 -1 0 0");
    expectRejected("long_del", "long_del 0.001 2 84 -13");
    expectRejected("second_order", "second_order ins T - 0.01 4 2 1 -1");
}

TEST(ProfileIo, IgnoresCommentsAndBlanks)
{
    ErrorProfile original = ErrorProfile::uniform(0.05, 80);
    std::ostringstream out;
    writeProfile(original, out);
    std::string text = "# a comment\n\n" + out.str();
    std::istringstream in(text);
    ErrorProfile parsed = readProfile(in);
    expectProfilesClose(original, parsed);
}

} // namespace
} // namespace dnasim
