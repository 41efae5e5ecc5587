/**
 * @file
 * Round-trip and robustness tests for ErrorProfile serialization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "core/dnasimulator_model.hh"
#include "core/ids_model.hh"
#include "core/profile_io.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"

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
    // Read as millionths, 1e308 used to overflow its integer count.
    expectRejected("spatial", "spatial 3 1e308 1 1");
    expectRejected("long_del", "long_del 0.001 2 84 -13");
    expectRejected("second_order", "second_order ins T - 0.01 4 2 1 -1");
}

TEST(ProfileIo, RejectsAggregateRatesAboveOne)
{
    // Used to be accepted and reported as "aggregate error 270.00%".
    expectRejected("aggregate", "aggregate 0.9 0.9 0.9");
    expectRejected("aggregate", "aggregate 0.5 0.3 0.3");

    std::istringstream one(
        profileWithLine("aggregate", "aggregate 0.5 0.25 0.25"));
    EXPECT_DOUBLE_EQ(readProfile(one).totalRate(), 1.0);
}

TEST(ProfileIo, RejectsConditionalRatesAboveOne)
{
    // DNASimulator reads a base's three conditional rates plus
    // long_del as one distribution. "0.6 0.6 0.6" per base used to
    // pass the reader and abort `simulate --model dnasimulator`.
    expectRejected("conditional", "conditional 0.6 0.6 0.6 0.6 0.6 0.6 "
                                  "0.6 0.6 0.6 0.6 0.6 0.6");
    // One base over is enough, and the error names it.
    std::istringstream t_over(profileWithLine(
        "conditional", "conditional 0.01 0.01 0.01 0.01 0.01 0.01 0.01 "
                       "0.01 0.01 0.5 0.3 0.3"));
    try {
        readProfile(t_over);
        ADD_FAILURE() << "base T's rates sum to 1.1";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("base T"), std::string::npos)
            << e.what();
    }
    // long_del counts toward every base's sum.
    const std::string full = profileWithLine(
        "conditional", "conditional 0.5 0.25 0.25 0.5 0.25 0.25 0.5 0.25 "
                       "0.25 0.5 0.25 0.25");
    std::istringstream exactly_one(full);
    EXPECT_NO_THROW(readProfile(exactly_one));
    std::string with_long_del = full;
    const std::string no_long_del = "\nlong_del 0 0\n";
    ASSERT_NE(with_long_del.find(no_long_del), std::string::npos);
    with_long_del.replace(with_long_del.find(no_long_del),
                          no_long_del.size(), "\nlong_del 0.01 0\n");
    std::istringstream over(with_long_del);
    EXPECT_THROW(readProfile(over), FatalError);
}

TEST(ProfileIo, RejectsConfusionRowsThatAreNotDistributions)
{
    expectRejected("confusion", "confusion A 0 0.5 0.2 0.2");
    expectRejected("confusion C", "confusion C 0.1 0 0.1 0.1");
    // A base substituted by itself, though the row sums to 1.
    expectRejected("confusion G", "confusion G 0.25 0.25 0.25 0.25");

    std::istringstream empty_row(
        profileWithLine("confusion", "confusion A 0 0 0 0"));
    EXPECT_EQ(readProfile(empty_row).confusion[0][1], 0.0);
}

TEST(ProfileIo, RejectsInsertBaseThatIsNotADistribution)
{
    expectRejected("insert_base", "insert_base 0.5 0.5 0.5 0.5");
    expectRejected("insert_base", "insert_base 0.1 0 0 0");

    std::istringstream nothing_inserted(
        profileWithLine("insert_base", "insert_base 0 0 0 0"));
    EXPECT_EQ(readProfile(nothing_inserted).insert_base[2], 0.0);
}

TEST(ProfileIo, RejectsNonPositiveHomopolymerMultiplier)
{
    // The contextual model scales rates by mult / (1 + f (mult - 1)),
    // negative or undefined for these.
    expectRejected("homopolymer_mult", "homopolymer_mult -5");
    expectRejected("homopolymer_mult", "homopolymer_mult 0");
    expectRejected("homopolymer_mult", "homopolymer_mult 1e400");

    std::istringstream strong(
        profileWithLine("homopolymer_mult", "homopolymer_mult 3.5"));
    EXPECT_EQ(readProfile(strong).homopolymer_mult, 3.5);
}

TEST(ProfileIo, RejectsSpatialVectorsOtherThanDesignLength)
{
    // The profile under test has design_length 80.
    expectRejected("spatial", "spatial 3 1 1 1");
    expectRejected("second_order",
                   "second_order sub A C 0.01 4 3 1 1 1");
    std::istringstream missing_length(profileWithLine(
        "design_length", "# no design_length"));
    EXPECT_NO_THROW(readProfile(missing_length));

    std::string eighty = " 80";
    for (int i = 0; i < 80; ++i)
        eighty += " 1";
    std::istringstream fits(profileWithLine("spatial", "spatial" + eighty));
    EXPECT_EQ(readProfile(fits).spatial.length(), 80u);
    std::istringstream second(profileWithLine(
        "second_order", "second_order del T - 0.01 4" + eighty));
    EXPECT_EQ(readProfile(second).second_order.at(0).spatial.length(),
              80u);
    std::istringstream uniform(
        profileWithLine("second_order", "second_order ins G - 0.01 4 0"));
    EXPECT_TRUE(readProfile(uniform).second_order.at(0).spatial.isUniform());
}

TEST(ProfileIo, RejectsSecondOrderKeysThatDisagree)
{
    // A substitution with no replacement base used to emit '\0'.
    expectRejected("second_order", "second_order sub A - 0.01 4 0");
    expectRejected("second_order", "second_order sub C C 0.01 4 0");
    expectRejected("second_order", "second_order del A C 0.01 4 0");
    expectRejected("second_order", "second_order ins T G 0.01 4 0");
}

/** A calibrated profile's text, as `dnasim calibrate --out` writes it. */
std::string
calibratedText(size_t clusters, double error_rate, uint64_t seed)
{
    WetlabConfig config;
    config.num_clusters = clusters;
    config.total_error_rate = error_rate;
    Rng rng(seed);
    const Dataset data = NanoporeDatasetGenerator(config).generate(rng);
    std::ostringstream out;
    writeProfile(ErrorProfiler().calibrate(data), out);
    return out.str();
}

/**
 * Every model of the ladder (and the contextual, full and DNASimulator
 * models) builds from @p profile and transmits design-length and
 * shorter strands as ACGT text of bounded length.
 */
void
expectDrivesEveryModel(const ErrorProfile &profile, Rng &rng)
{
    const IdsChannelModel ids[] = {
        IdsChannelModel::naive(profile),
        IdsChannelModel::conditional(profile),
        IdsChannelModel::skew(profile),
        IdsChannelModel::secondOrder(profile),
        IdsChannelModel::contextual(profile),
        IdsChannelModel::full(profile),
    };
    const DnaSimulatorModel dnasimulator =
        DnaSimulatorModel::fromProfile(profile);
    std::vector<const ErrorModel *> models;
    for (const IdsChannelModel &model : ids)
        models.push_back(&model);
    models.push_back(&dnasimulator);
    const size_t len = profile.design_length != 0 ? profile.design_length
                                                  : 110;
    for (const Strand &ref :
         {StrandFactory().make(len, rng), Strand(len / 2 + 1, 'A')}) {
        for (const ErrorModel *model : models) {
            const Strand copy = model->transmit(ref, rng);
            EXPECT_LE(copy.size(), 2 * ref.size() + 1) << model->name();
            for (char c : copy)
                ASSERT_TRUE(isBaseChar(c)) << model->name();
        }
    }
}

TEST(ProfileIo, EveryCalibratedProfileReadsBack)
{
    // Whatever calibrate writes, the reader accepts, across the
    // error rates and dataset sizes the paper's loop meets.
    struct Case
    {
        double error_rate;
        size_t clusters;
    };
    std::vector<Case> cases;
    for (double error_rate : {0.01, 0.06, 0.3})
        for (size_t clusters : {size_t{5}, size_t{60}, size_t{400}})
            cases.push_back({error_rate, clusters});
    cases.push_back({0.06, 2000}); // paper-ladder's dataset size
    uint64_t seed = 0xca1;
    for (const auto &[error_rate, clusters] : cases) {
        const std::string text =
            calibratedText(clusters, error_rate, ++seed);
        std::istringstream in(text);
        ErrorProfile parsed;
        ASSERT_NO_THROW(parsed = readProfile(in))
            << error_rate << " at " << clusters << " clusters:\n"
            << text;
        Rng rng(seed);
        expectDrivesEveryModel(parsed, rng);
    }
}

TEST(ProfileIo, MutatedProfilesAreRejectedOrDriveEveryModel)
{
    // Fixed-seed mutants of a calibrated profile's text: tokens
    // overwritten with extreme numbers, lines dropped or repeated.
    // Each one either fails with FatalError or reads into a profile
    // every model can run.
    const std::string text = calibratedText(40, 0.06, 0x5eed);
    std::vector<std::string> lines;
    std::istringstream split(text);
    for (std::string line; std::getline(split, line);)
        lines.push_back(line);
    const char *const values[] = {"0",     "-1",         "1e308",
                                  "nan",   "inf",        "-inf",
                                  "1e-320", "4294967296", "1000000000",
                                  "18446744073709551615"};
    Rng rng(0x3a7e);
    size_t rejected = 0, accepted = 0;
    for (size_t iter = 0; iter < 2000; ++iter) {
        std::vector<std::string> mutant = lines;
        const size_t edits = 1 + rng.index(3);
        for (size_t e = 0; e < edits; ++e) {
            const size_t at = rng.index(mutant.size());
            switch (rng.index(4)) {
              case 0:
                mutant.erase(mutant.begin() +
                             static_cast<ptrdiff_t>(at));
                break;
              case 1: {
                const std::string repeated = mutant[at];
                mutant.insert(mutant.begin() +
                                  static_cast<ptrdiff_t>(at),
                              repeated);
                break;
              }
              default: {
                // Overwrite one whitespace-separated token.
                std::istringstream in(mutant[at]);
                std::vector<std::string> tokens(
                    std::istream_iterator<std::string>{in}, {});
                if (tokens.empty())
                    break;
                tokens[rng.index(tokens.size())] =
                    values[rng.index(std::size(values))];
                std::string joined;
                for (const std::string &t : tokens)
                    joined += (joined.empty() ? "" : " ") + t;
                mutant[at] = joined;
              }
            }
            if (mutant.empty())
                break;
        }
        std::string joined;
        for (const std::string &line : mutant)
            joined += line + "\n";
        std::istringstream in(joined);
        ErrorProfile parsed;
        try {
            parsed = readProfile(in);
        } catch (const FatalError &) {
            ++rejected;
            continue;
        }
        ++accepted;
        expectDrivesEveryModel(parsed, rng);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "mutant " << iter << ":\n" << joined;
            break;
        }
    }
    // Both outcomes occur, so the mutations reach past the parser's
    // first checks.
    EXPECT_GT(rejected, 200u);
    EXPECT_GT(accepted, 200u);
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
