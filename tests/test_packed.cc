/**
 * @file
 * Tests for the 2-bit packed words and the kernels around them:
 * packWordsInto()/unpackWords() round-trips and validation,
 * MyersPattern reuse, thresholded distances and the ACGT
 * precondition, unweighted consensus voting, and packed k-mer walks.
 * The load-bearing property throughout is *bit-identical
 * equivalence* with the character paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "align/edit_distance.hh"
#include "base/packed.hh"
#include "base/rng.hh"
#include "data/strand_factory.hh"
#include "reconstruct/consensus.hh"

namespace dnasim
{
namespace
{

/// Boundary lengths around the 32-bases-per-word packing: empty,
/// single base, word-straddling 63/64/65, and multi-word 4096+.
const std::vector<size_t> kBoundaryLengths = {0,  1,  31,  32,  33,
                                              63, 64, 65,  127, 128,
                                              4096, 4133};

std::string
randomStrand(size_t len, Rng &rng)
{
    std::string s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i)
        s.push_back(kBaseChars[rng.index(kNumBases)]);
    return s;
}

/** Mutate ~rate of positions to a random other base. */
std::string
mutate(std::string s, double rate, Rng &rng)
{
    for (char &c : s) {
        if (rng.uniform() < rate)
            c = kBaseChars[rng.index(kNumBases)];
    }
    return s;
}

/** Pack @p s, expecting it to be ACGT. */
std::vector<uint64_t>
packAll(std::string_view s)
{
    std::vector<uint64_t> words;
    EXPECT_TRUE(packWordsInto(s, words)) << s;
    return words;
}

TEST(PackedStrand, RoundTripBoundaryLengths)
{
    Rng rng(0x9a11);
    for (size_t len : kBoundaryLengths) {
        const std::string s = randomStrand(len, rng);
        const std::vector<uint64_t> words = packAll(s);
        EXPECT_EQ(words.size(), numWords(len));
        Strand back;
        unpackWords(words, len, back);
        EXPECT_EQ(back, s) << "len " << len;
    }
}

TEST(PackedStrand, TailBitsAreZero)
{
    // Canonical zero tail: a pool read's last word carries nothing
    // past the strand.
    const std::vector<uint64_t> words =
        packAll(std::string(65, 'T')); // T = code 3, all-ones pairs
    ASSERT_EQ(words.size(), 3u);
    EXPECT_EQ(words[2], uint64_t{3}); // one base, 62 zero tail bits
}

TEST(PackedStrand, EqualityAndReuse)
{
    // Packing into a larger buffer reuses its storage and must fully
    // replace prior content, including the canonical tail.
    Rng rng(3);
    std::vector<uint64_t> words = packAll(randomStrand(4096, rng));
    ASSERT_TRUE(packWordsInto("ACGT", words));
    EXPECT_EQ(words, packAll("ACGT"));
    Strand back;
    unpackWords(words, 4, back);
    EXPECT_EQ(back, "ACGT");
}

TEST(PackedStrand, RejectsNonAcgt)
{
    std::vector<uint64_t> words;
    EXPECT_FALSE(packWordsInto("ACGN", words));
    EXPECT_FALSE(packWordsInto("acgt", words));
    EXPECT_FALSE(packWordsInto(std::string_view("AC\0T", 4), words));
    EXPECT_TRUE(packWordsInto("", words));
    EXPECT_TRUE(packWordsInto("ACGT", words));
}

TEST(MyersPattern, MatchesLevenshteinAcrossLengths)
{
    Rng rng(0xabcd);
    for (size_t len : kBoundaryLengths) {
        const std::string pat = randomStrand(len, rng);
        MyersPattern pattern{std::string_view(pat)};
        EXPECT_EQ(pattern.size(), len);
        // Reuse the same pattern across several texts — the cached
        // Peq tables must not carry state between queries.
        for (int trial = 0; trial < 4; ++trial) {
            std::string txt = mutate(pat, 0.1, rng);
            if (trial == 2 && !txt.empty())
                txt.erase(txt.begin());
            if (trial == 3)
                txt.push_back('C');
            EXPECT_EQ(pattern.distance(txt), levenshtein(pat, txt))
                << "len " << len << " trial " << trial;
        }
        EXPECT_EQ(pattern.distance(""), len);
    }
}

TEST(MyersPattern, BoundedIsExactWithinLimitAndConsistentAbove)
{
    Rng rng(0xf00d);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t len = 1 + rng.index(150);
        const std::string pat = randomStrand(len, rng);
        const std::string txt = mutate(randomStrand(len, rng),
                                       0.5, rng);
        const size_t exact = levenshtein(pat, txt);
        MyersPattern pattern{std::string_view(pat)};
        for (size_t limit : {size_t{0}, size_t{3}, exact,
                             exact + 5}) {
            const size_t got = pattern.distanceBounded(txt, limit);
            if (exact <= limit) {
                EXPECT_EQ(got, exact) << "limit " << limit;
            } else {
                // Above the limit only the accept/reject decision is
                // contractual.
                EXPECT_GT(got, limit) << "exact " << exact;
            }
        }
    }
}

TEST(MyersPattern, NonAcgtPatternPanics)
{
    // Patterns are ACGT: the base tables panic on anything else,
    // through the constructor, assign() and levenshtein()'s shorter
    // side.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(MyersPattern{std::string_view("ACGNACGT")},
                 "invalid base character 'N'");
    MyersPattern pattern;
    EXPECT_DEATH(pattern.assign("acgt"), "invalid base character 'a'");
    EXPECT_DEATH(levenshtein("ACGN", "ACGTACGT"),
                 "invalid base character 'N'");
    // A text character outside ACGT is no second path: it matches
    // nothing in an ACGT pattern.
    MyersPattern acgt{std::string_view("ACGT")};
    EXPECT_EQ(acgt.distance("ANGT"), 1u);
    EXPECT_EQ(acgt.distance("NNNN"), 4u);
    EXPECT_EQ(acgt.distanceBounded("NNNNNN", 6), 6u);
}

TEST(PackedConsensus, MatchesCharVotingRandomized)
{
    // The unweighted (packed) path must consume the Rng exactly like
    // the weighted character path with unit weights: same winners,
    // same tie-breaks, same draws.
    Rng rng(0x51de);
    for (size_t design_len :
         {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
          size_t{110}}) {
        for (size_t copies_n : {size_t{0}, size_t{1}, size_t{2},
                                size_t{5}, size_t{9}}) {
            const std::string ref = randomStrand(design_len, rng);
            std::vector<Strand> copies;
            for (size_t k = 0; k < copies_n; ++k) {
                Strand c = mutate(ref, 0.2, rng);
                // Length diversity: some copies short, some long.
                if (k % 3 == 1 && c.size() > 4)
                    c.resize(c.size() - 3);
                if (k % 3 == 2)
                    c += randomStrand(4, rng);
                copies.push_back(std::move(c));
            }
            const std::vector<double> unit(copies.size(), 1.0);
            Rng packed_rng(1000 + design_len);
            Rng char_rng(1000 + design_len);
            Strand via_packed = positionalPlurality(
                copies, design_len, packed_rng, {});
            Strand via_chars = positionalPlurality(
                copies, design_len, char_rng, unit);
            EXPECT_EQ(via_packed, via_chars)
                << "design_len " << design_len << " copies "
                << copies_n;
            // Identical residual Rng state proves identical
            // consumption, not just identical output.
            EXPECT_EQ(packed_rng.uniform(), char_rng.uniform());
        }
    }
}

TEST(PackedConsensus, EmptyColumnsFillWithA)
{
    std::vector<Strand> copies = {"AC", "AC"};
    std::vector<Strand> none;
    Rng rng(5);
    EXPECT_EQ(positionalPlurality(copies, 5, rng, {}), "ACAAA");
    EXPECT_EQ(positionalPlurality(none, 3, rng, {}), "AAA");
}

/** Character-path reference: the 2-bit code of s[i..i+k). */
uint64_t
kmerCodeFromChars(std::string_view s, size_t i, size_t k)
{
    uint64_t code = 0;
    for (size_t j = 0; j < k; ++j) {
        uint64_t b = 0;
        switch (s[i + j]) {
        case 'A': b = 0; break;
        case 'C': b = 1; break;
        case 'G': b = 2; break;
        case 'T': b = 3; break;
        }
        code |= b << (2 * j);
    }
    return code;
}

TEST(ForEachPackedKmer, MatchesCharacterPath)
{
    StrandFactory factory;
    Rng rng(77);
    // Lengths straddling the word boundary and k spanning the full
    // legal range, including k == word width.
    for (size_t len : {size_t{10}, size_t{31}, size_t{32}, size_t{33},
                       size_t{64}, size_t{65}, size_t{110}}) {
        Strand s = factory.make(len, rng);
        const std::vector<uint64_t> packed = packAll(s);
        for (size_t k : {size_t{1}, size_t{5}, size_t{10}, size_t{31},
                         size_t{32}}) {
            std::vector<uint64_t> codes;
            forEachPackedKmer(packed, len, k,
                              [&](uint64_t c) { codes.push_back(c); });
            if (len < k) {
                EXPECT_TRUE(codes.empty()) << len << " " << k;
                continue;
            }
            ASSERT_EQ(codes.size(), len - k + 1)
                << "len " << len << " k " << k;
            for (size_t i = 0; i < codes.size(); ++i)
                EXPECT_EQ(codes[i], kmerCodeFromChars(s, i, k))
                    << "len " << len << " k " << k << " pos " << i;
        }
    }
}

TEST(ForEachPackedKmer, DegenerateKYieldsNothing)
{
    const std::vector<uint64_t> packed = packAll(Strand(40, 'G'));
    size_t calls = 0;
    auto count = [&](uint64_t) { ++calls; };
    forEachPackedKmer(packed, 40, 0, count);
    forEachPackedKmer(packed, 40, kBasesPerWord + 1, count);
    forEachPackedKmer(packed, 0, 5, count);
    EXPECT_EQ(calls, 0u);
}

TEST(ForEachPackedKmer, WholeReadAsSingleKmer)
{
    // len == k == 32: exactly one code, equal to the packed word.
    StrandFactory factory;
    Rng rng(78);
    Strand s = factory.make(32, rng);
    const std::vector<uint64_t> packed = packAll(s);
    std::vector<uint64_t> codes;
    forEachPackedKmer(packed, 32, 32,
                      [&](uint64_t c) { codes.push_back(c); });
    ASSERT_EQ(codes.size(), 1u);
    EXPECT_EQ(codes[0], packed[0]);
}

} // anonymous namespace
} // namespace dnasim
