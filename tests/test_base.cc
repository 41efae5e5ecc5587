/**
 * @file
 * Unit tests for the base library: DNA alphabet utilities, the RNG,
 * logging, and table formatting.
 */

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <set>

#include "base/dna.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/table.hh"

namespace dnasim
{
namespace
{

TEST(Dna, BaseCharRoundTrip)
{
    for (Base b : kAllBases)
        EXPECT_EQ(charToBase(baseToChar(b)), b);
    for (char c : kBaseChars)
        EXPECT_EQ(baseToChar(charToBase(c)), c);
}

TEST(Dna, BaseIndexIsDense)
{
    std::set<size_t> seen;
    for (char c : kBaseChars)
        seen.insert(baseIndex(c));
    EXPECT_EQ(seen.size(), kNumBases);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), kNumBases - 1);
}

TEST(Dna, IsBaseChar)
{
    EXPECT_TRUE(isBaseChar('A'));
    EXPECT_TRUE(isBaseChar('C'));
    EXPECT_TRUE(isBaseChar('G'));
    EXPECT_TRUE(isBaseChar('T'));
    EXPECT_FALSE(isBaseChar('a'));
    EXPECT_FALSE(isBaseChar('N'));
    EXPECT_FALSE(isBaseChar('\0'));
    EXPECT_FALSE(isBaseChar(' '));
}

TEST(Dna, IsValidStrand)
{
    EXPECT_TRUE(isValidStrand(""));
    EXPECT_TRUE(isValidStrand("ACGT"));
    EXPECT_TRUE(isValidStrand("AAAA"));
    EXPECT_FALSE(isValidStrand("ACGX"));
    EXPECT_FALSE(isValidStrand("acgt"));
}

TEST(Dna, ReverseStrand)
{
    EXPECT_EQ(reverseStrand("ACGT"), "TGCA");
    EXPECT_EQ(reverseStrand(""), "");
    EXPECT_EQ(reverseStrand("A"), "A");
}

TEST(Dna, GcRatio)
{
    EXPECT_DOUBLE_EQ(gcRatio(""), 0.0);
    EXPECT_DOUBLE_EQ(gcRatio("AT"), 0.0);
    EXPECT_DOUBLE_EQ(gcRatio("GC"), 1.0);
    EXPECT_DOUBLE_EQ(gcRatio("ACGT"), 0.5);
    EXPECT_DOUBLE_EQ(gcRatio("AAAG"), 0.25);
}

TEST(Dna, MaxHomopolymerRun)
{
    EXPECT_EQ(maxHomopolymerRun(""), 0u);
    EXPECT_EQ(maxHomopolymerRun("A"), 1u);
    EXPECT_EQ(maxHomopolymerRun("ACGT"), 1u);
    EXPECT_EQ(maxHomopolymerRun("AACCC"), 3u);
    EXPECT_EQ(maxHomopolymerRun("TTTTT"), 5u);
    EXPECT_EQ(maxHomopolymerRun("ATTTA"), 3u);
}

TEST(Dna, HomopolymerRunMask)
{
    auto mask = homopolymerRunMask("AAATCCGGG", 3);
    std::vector<bool> expected = {true,  true,  true,  false, false,
                                  false, false, true,  true};
    // positions 0-2 (AAA) and 6-8 (GGG)... note GG at 5-6? The
    // string is A A A T C C G G G: GGG spans 6-8.
    expected = {true, true, true, false, false, false,
                true, true, true};
    EXPECT_EQ(mask, expected);
}

TEST(Dna, HomopolymerRunMaskThreshold)
{
    // Runs shorter than min_run are not flagged.
    auto mask = homopolymerRunMask("AATTCC", 3);
    for (bool b : mask)
        EXPECT_FALSE(b);
    auto mask2 = homopolymerRunMask("AATTCC", 2);
    for (bool b : mask2)
        EXPECT_TRUE(b);
}

TEST(Dna, HomopolymerRunMaskEmpty)
{
    EXPECT_TRUE(homopolymerRunMask("", 3).empty());
}

TEST(Dna, BaseCounts)
{
    auto counts = baseCounts("AACGTT");
    EXPECT_EQ(counts[baseIndex('A')], 2u);
    EXPECT_EQ(counts[baseIndex('C')], 1u);
    EXPECT_EQ(counts[baseIndex('G')], 1u);
    EXPECT_EQ(counts[baseIndex('T')], 2u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform() == b.uniform())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsIndependentOfParentUse)
{
    Rng a(7);
    Rng child1 = a.fork(3);
    a.uniform();
    a.uniform();
    Rng b(7);
    Rng child2 = b.fork(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(child1.uniform(), child2.uniform());
}

TEST(Rng, ForkSaltsDecorrelate)
{
    Rng a(7);
    Rng c1 = a.fork(1);
    Rng c2 = a.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (c1.uniform() == c2.uniform())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(12);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        EXPECT_FALSE(rng.bernoulli(-1.0));
        EXPECT_TRUE(rng.bernoulli(2.0));
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(14);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    double rate = static_cast<double>(hits) / n;
    EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng rng(15);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    std::array<int, 3> counts{};
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.discrete(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, NegativeBinomialMean)
{
    Rng rng(16);
    // mean m = r(1-p)/p; with r = 2, p = 2 / (2 + 27) mean is 27.
    double r = 2.0, mean = 27.0;
    double p = r / (r + mean);
    double acc = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        acc += static_cast<double>(rng.negativeBinomial(r, p));
    EXPECT_NEAR(acc / n, mean, 1.5);
}

TEST(Rng, PoissonMean)
{
    Rng rng(17);
    double acc = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        acc += static_cast<double>(rng.poisson(4.0));
    EXPECT_NEAR(acc / n, 4.0, 0.2);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(18);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

/**
 * 64 seeds for the engine checks: the edge seeds, the default seed,
 * and splitmix-mixed fork seeds.
 */
std::vector<uint64_t>
engineSeeds()
{
    std::vector<uint64_t> seeds = {0, 1, ~uint64_t{0},
                                   0x5eed'da7a'5eed'da7aULL};
    const Rng parent(0xc0ffee);
    for (uint64_t salt = 0; seeds.size() < 64; ++salt)
        seeds.push_back(parent.fork(salt).seed());
    return seeds;
}

TEST(Rng, EngineMatchesStdMt19937_64)
{
    // std::mt19937_64 is the reference the in-house engine must
    // reproduce word for word: over three twists, from each seed and
    // from a fork child of each.
    constexpr size_t kWords = 3 * 312 + 17;
    for (uint64_t seed : engineSeeds()) {
        Mt19937_64 engine(seed);
        std::mt19937_64 reference(seed);
        for (size_t i = 0; i < kWords; ++i)
            ASSERT_EQ(engine(), reference())
                << "seed " << seed << ", word " << i;

        Rng child = Rng(seed).fork(seed ^ 0x5a17);
        std::mt19937_64 child_reference(child.seed());
        for (size_t i = 0; i < kWords; ++i)
            ASSERT_EQ(child.engine()(), child_reference())
                << "fork of seed " << seed << ", word " << i;
    }
}

TEST(Rng, UniformMatchesStdUniformRealDistribution)
{
    Rng rng(0x0123);
    std::mt19937_64 reference(0x0123);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_real_distribution<double> wide(-3.5, 7.25);
    size_t mismatches = 0;
    for (size_t i = 0; i < 1'000'000; ++i) {
        mismatches += std::bit_cast<uint64_t>(rng.uniform()) !=
                      std::bit_cast<uint64_t>(unit(reference));
    }
    for (size_t i = 0; i < 100'000; ++i) {
        mismatches += std::bit_cast<uint64_t>(rng.uniform(-3.5, 7.25)) !=
                      std::bit_cast<uint64_t>(wide(reference));
    }
    EXPECT_EQ(mismatches, 0u);
}

/** A UniformRandomBitGenerator that returns one fixed word. */
struct FixedWord
{
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~uint64_t{0}; }
    result_type operator()() { return word; }
    uint64_t word = 0;
};

/** True when unitFromWord(w) is bit-identical to libstdc++'s. */
bool
unitMatchesCanonical(uint64_t word)
{
    FixedWord engine{word};
    const double reference =
        std::generate_canonical<double, 53>(engine);
    return std::bit_cast<uint64_t>(Rng::unitFromWord(word)) ==
           std::bit_cast<uint64_t>(reference);
}

TEST(Rng, UnitFromWordMatchesGenerateCanonical)
{
    // Rounding boundaries: the words that round up to 1 (clamped),
    // the last ones that stay below it, ties at the top of the
    // range, 2^63 (the sign bit GCC's conversion branches on), and
    // the edges of exactly representable 2^53.
    constexpr uint64_t kAll = ~uint64_t{0};
    for (uint64_t word :
         {kAll, kAll - 1023, kAll - 1024, kAll - 2047, kAll - 2048,
          uint64_t{1} << 63, (uint64_t{1} << 53) - 1,
          (uint64_t{1} << 53) + 1, uint64_t{0}, uint64_t{1}}) {
        EXPECT_TRUE(unitMatchesCanonical(word)) << word;
    }
    EXPECT_EQ(Rng::unitFromWord(kAll), 0x1.fffffffffffffp-1);

    // Random words at every magnitude.
    std::mt19937_64 words(0xca11);
    size_t mismatches = 0;
    for (unsigned shift = 0; shift < 64; ++shift) {
        for (size_t i = 0; i < 100'000; ++i)
            mismatches += !unitMatchesCanonical(words() >> shift);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Rng, EngineEqualityTracksDrawCounts)
{
    Rng a(9), b(9);
    EXPECT_TRUE(a.engine() == b.engine());
    a.uniform();
    EXPECT_FALSE(a.engine() == b.engine());
    b.uniform();
    EXPECT_TRUE(a.engine() == b.engine());
    // Across a twist: equal after equal counts, unequal otherwise.
    for (int i = 0; i < 400; ++i)
        a.uniform();
    EXPECT_FALSE(a.engine() == b.engine());
    for (int i = 0; i < 400; ++i)
        b.uniform();
    EXPECT_TRUE(a.engine() == b.engine());
    EXPECT_FALSE(a.engine() == Rng(10).engine());
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(DNASIM_FATAL("user error: ", 42), FatalError);
}

TEST(Logging, FatalMessageContent)
{
    try {
        DNASIM_FATAL("bad value ", 7);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad value 7");
    }
}

TEST(Logging, FatalIsQuietAndCarriesItsLocation)
{
    // A caller that handles the error decides whether anyone sees
    // it: throwing writes nothing to stderr.
    ::testing::internal::CaptureStderr();
    const int line = __LINE__ + 2;
    try {
        DNASIM_FATAL("unreadable input");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "unreadable input");
        EXPECT_TRUE(std::string(e.file()).ends_with("test_base.cc"))
            << e.file();
        EXPECT_EQ(e.line(), line);
    }
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(Logging, AssertPassesOnTrue)
{
    DNASIM_ASSERT(1 + 1 == 2, "arithmetic works");
    SUCCEED();
}

TEST(Table, AlignedOutput)
{
    TextTable t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, FmtHelpers)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPercent(0.5), "50.00");
    EXPECT_EQ(fmtPercent(0.123456, 1), "12.3");
}

} // namespace
} // namespace dnasim
