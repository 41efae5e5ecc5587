/**
 * @file
 * Unit and property tests for the alignment library: Levenshtein
 * distance, edit-operation backtraces (Appendix B), gestalt pattern
 * matching, and Hamming comparison.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <thread>

#include "align/edit_distance.hh"
#include "align/gestalt.hh"
#include "align/hamming.hh"
#include "base/rng.hh"
#include "core/ids_model.hh"
#include "data/strand_factory.hh"
#include "par/thread_pool.hh"

namespace dnasim
{
namespace
{

TEST(Levenshtein, Basics)
{
    EXPECT_EQ(levenshtein("", ""), 0u);
    EXPECT_EQ(levenshtein("ACGT", "ACGT"), 0u);
    EXPECT_EQ(levenshtein("ACGT", ""), 4u);
    EXPECT_EQ(levenshtein("", "ACGT"), 4u);
    EXPECT_EQ(levenshtein("ACGT", "AGGT"), 1u); // sub
    EXPECT_EQ(levenshtein("ACGT", "ACT"), 1u);  // del
    EXPECT_EQ(levenshtein("ACGT", "ACGTT"), 1u); // ins
}

TEST(Levenshtein, PaperExample)
{
    // r = AGCG, c = AGG: one deletion suffices.
    EXPECT_EQ(levenshtein("AGCG", "AGG"), 1u);
}

TEST(Levenshtein, MetricProperties)
{
    StrandFactory factory;
    Rng rng(21);
    for (int trial = 0; trial < 30; ++trial) {
        Strand a = factory.make(20 + rng.index(30), rng);
        Strand b = factory.make(20 + rng.index(30), rng);
        Strand c = factory.make(20 + rng.index(30), rng);
        // symmetry
        EXPECT_EQ(levenshtein(a, b), levenshtein(b, a));
        // identity
        EXPECT_EQ(levenshtein(a, a), 0u);
        // triangle inequality
        EXPECT_LE(levenshtein(a, c),
                  levenshtein(a, b) + levenshtein(b, c));
        // length-difference lower bound, max-length upper bound
        size_t diff = a.size() > b.size() ? a.size() - b.size()
                                          : b.size() - a.size();
        EXPECT_GE(levenshtein(a, b), diff);
        EXPECT_LE(levenshtein(a, b), std::max(a.size(), b.size()));
    }
}

TEST(Levenshtein, BandedFastPathMatchesFullMatrix)
{
    // levenshtein() must agree with the textbook DP on arbitrary
    // pairs, very dissimilar ones included, and on close ones.
    auto full = [](std::string_view a, std::string_view b) {
        std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
        for (size_t j = 0; j <= b.size(); ++j)
            prev[j] = j;
        for (size_t i = 1; i <= a.size(); ++i) {
            cur[0] = i;
            for (size_t j = 1; j <= b.size(); ++j) {
                size_t diag =
                    prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
                cur[j] = std::min(
                    {diag, prev[j] + 1, cur[j - 1] + 1});
            }
            std::swap(prev, cur);
        }
        return prev[b.size()];
    };

    StrandFactory factory;
    Rng rng(33);
    for (int trial = 0; trial < 40; ++trial) {
        size_t la = 1 + rng.index(120);
        size_t lb = 1 + rng.index(120);
        Strand a = factory.make(la, rng);
        Strand b = factory.make(lb, rng);
        EXPECT_EQ(levenshtein(a, b), full(a, b))
            << a << " vs " << b;
    }
    // Similar pairs (the intended fast path).
    ErrorProfile profile = ErrorProfile::uniform(0.08, 100);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 40; ++trial) {
        Strand a = factory.make(100, rng);
        Strand b = channel.transmit(a, rng);
        EXPECT_EQ(levenshtein(a, b), full(a, b));
    }
}

namespace
{

/** Textbook full-matrix DP — ground truth for the fast kernels. */
size_t
fullMatrixDp(std::string_view a, std::string_view b)
{
    std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            size_t diag = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({diag, prev[j] + 1, cur[j - 1] + 1});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // anonymous namespace

TEST(LevenshteinBitParallel, MatchesFullDpAtWordBoundaries)
{
    // levenshtein() runs one MyersPattern over the shorter string;
    // the column moves from one 64-bit word to several at pattern
    // length 65, and 4095-4097 and 6,000 cover what a banded DP
    // used to serve. Every length must agree with the textbook DP.
    // Strands are drawn base-by-base (StrandFactory's GC constraints
    // cannot be met at tiny lengths).
    Rng rng(42);
    auto make = [&](size_t len) {
        Strand s;
        for (size_t i = 0; i < len; ++i)
            s.push_back("ACGT"[rng.index(4)]);
        return s;
    };
    ErrorProfile profile = ErrorProfile::uniform(0.08, 200);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (size_t len : {size_t{1}, size_t{2}, size_t{63}, size_t{64},
                       size_t{65}, size_t{127}, size_t{128},
                       size_t{129}, size_t{150}, size_t{200},
                       size_t{4095}, size_t{4096}, size_t{4097}}) {
        const int trials = len < 4095 ? 10 : 1;
        for (int trial = 0; trial < trials; ++trial) {
            Strand a = make(len);
            Strand b = channel.transmit(a, rng);
            EXPECT_EQ(levenshtein(a, b), fullMatrixDp(a, b))
                << "similar pair, len " << len;
            EXPECT_EQ(levenshtein(b, a), fullMatrixDp(a, b))
                << "similar pair, swapped, len " << len;
            Strand c = make(1 + rng.index(2 * len));
            EXPECT_EQ(levenshtein(a, c), fullMatrixDp(a, c))
                << "dissimilar pair, len " << len;
        }
    }
    const Strand a = make(6000);
    const Strand b = channel.transmit(a, rng);
    EXPECT_EQ(levenshtein(a, b), fullMatrixDp(a, b)) << "6,000 bases";
}

TEST(LevenshteinBitParallel, EmptyAndDegenerate)
{
    EXPECT_EQ(levenshtein("", ""), 0u);
    EXPECT_EQ(levenshtein("", "ACGT"), 4u);
    EXPECT_EQ(levenshtein("ACGT", ""), 4u);
    EXPECT_EQ(levenshtein("A", "A"), 0u);
    EXPECT_EQ(levenshtein("A", "T"), 1u);
}

TEST(EditOps, EqualStringsAllEqualOps)
{
    auto ops = editOps("ACGT", "ACGT");
    ASSERT_EQ(ops.size(), 4u);
    for (const auto &op : ops)
        EXPECT_EQ(op.type, EditOpType::Equal);
    EXPECT_EQ(numErrors(ops), 0u);
}

TEST(EditOps, CountsMatchLevenshtein)
{
    StrandFactory factory;
    Rng rng(22);
    ErrorProfile profile = ErrorProfile::uniform(0.15, 40);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 50; ++trial) {
        Strand ref = factory.make(40, rng);
        Strand copy = channel.transmit(ref, rng);
        auto ops = editOps(ref, copy, &rng);
        EXPECT_EQ(numErrors(ops), levenshtein(ref, copy));
    }
}

TEST(EditOps, ApplyReproducesCopy)
{
    StrandFactory factory;
    Rng rng(23);
    ErrorProfile profile = ErrorProfile::uniform(0.2, 60);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 50; ++trial) {
        Strand ref = factory.make(60, rng);
        Strand copy = channel.transmit(ref, rng);
        // Both deterministic and randomized backtraces must
        // reproduce the copy exactly.
        EXPECT_EQ(applyEditOps(ref, editOps(ref, copy)), copy);
        EXPECT_EQ(applyEditOps(ref, editOps(ref, copy, &rng)), copy);
    }
}

TEST(EditOps, CoversEveryReferencePositionOnce)
{
    StrandFactory factory;
    Rng rng(24);
    ErrorProfile profile = ErrorProfile::uniform(0.2, 50);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 30; ++trial) {
        Strand ref = factory.make(50, rng);
        Strand copy = channel.transmit(ref, rng);
        auto ops = editOps(ref, copy, &rng);
        size_t consumed = 0;
        for (const auto &op : ops) {
            if (op.type == EditOpType::Insert)
                continue;
            EXPECT_EQ(op.ref_pos, consumed);
            EXPECT_EQ(op.ref_base, ref[consumed]);
            ++consumed;
        }
        EXPECT_EQ(consumed, ref.size());
    }
}

TEST(EditOps, DeterministicPrefersDeletionForPaperExample)
{
    // Appendix B's worked example: AGCG -> AGG should be explained
    // as the deletion of C.
    auto ops = editOps("AGCG", "AGG");
    std::vector<EditOp> errors;
    for (const auto &op : ops)
        if (op.type != EditOpType::Equal)
            errors.push_back(op);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].type, EditOpType::Delete);
    EXPECT_EQ(errors[0].ref_base, 'C');
    EXPECT_EQ(errors[0].ref_pos, 2u);
}

TEST(EditOps, RandomTieBreakingStaysMinimal)
{
    Rng rng(25);
    // Ambiguous case: many minimum-cost scripts exist.
    Strand ref = "AAAATTTT";
    Strand copy = "AAATTT";
    for (int trial = 0; trial < 20; ++trial) {
        auto ops = editOps(ref, copy, &rng);
        EXPECT_EQ(numErrors(ops), levenshtein(ref, copy));
        EXPECT_EQ(applyEditOps(ref, ops), copy);
    }
}

TEST(EditOps, RandomTieBreakingExploresAlternatives)
{
    Rng rng(26);
    // A deletion inside a homopolymer can be attributed to any of
    // the run's positions; the randomized backtrace should not
    // always pick the same one.
    std::set<size_t> positions;
    for (int trial = 0; trial < 100; ++trial) {
        auto ops = editOps("AAAA", "AAA", &rng);
        for (const auto &op : ops)
            if (op.type == EditOpType::Delete)
                positions.insert(op.ref_pos);
    }
    EXPECT_GT(positions.size(), 1u);
}

TEST(EditOps, InsertPositionSemantics)
{
    // Insertion before position 2 of the reference.
    auto ops = editOps("AACC", "AATCC");
    Strand rebuilt = applyEditOps("AACC", ops);
    EXPECT_EQ(rebuilt, "AATCC");
    size_t inserts = 0;
    for (const auto &op : ops) {
        if (op.type == EditOpType::Insert) {
            ++inserts;
            EXPECT_EQ(op.copy_base, 'T');
        }
    }
    EXPECT_EQ(inserts, 1u);
}

TEST(EditOps, EmptyInputs)
{
    auto del_all = editOps("ACG", "");
    EXPECT_EQ(numErrors(del_all), 3u);
    for (const auto &op : del_all)
        EXPECT_EQ(op.type, EditOpType::Delete);

    auto ins_all = editOps("", "ACG");
    EXPECT_EQ(numErrors(ins_all), 3u);
    for (const auto &op : ins_all)
        EXPECT_EQ(op.type, EditOpType::Insert);

    EXPECT_TRUE(editOps("", "").empty());
}

TEST(DeletionRuns, FindsMaximalRuns)
{
    // ref = ACGTACGT, copy missing GTA (positions 2-4).
    auto ops = editOps("ACGTACGT", "ACCGT");
    auto runs = deletionRuns(ops);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].length, 3u);
}

TEST(DeletionRuns, SeparatesDisjointRuns)
{
    // Two isolated single deletions.
    auto ops = editOps("ACGTAA", "CGTA");
    auto runs = deletionRuns(ops);
    size_t total = 0;
    for (const auto &r : runs)
        total += r.length;
    EXPECT_EQ(total, 2u);
}

TEST(EditOpTypeName, AllNamed)
{
    EXPECT_STREQ(editOpTypeName(EditOpType::Equal), "equal");
    EXPECT_STREQ(editOpTypeName(EditOpType::Substitute), "sub");
    EXPECT_STREQ(editOpTypeName(EditOpType::Delete), "del");
    EXPECT_STREQ(editOpTypeName(EditOpType::Insert), "ins");
}

TEST(Gestalt, PaperWikiExample)
{
    // Fig 3.1: WIKIMEDIA vs WIKIMANIA matches WIKIM, then IA after
    // the unmatched ED / AN, so Km = 7 and the ratio is 2*7/18.
    // Strands are ACGT, so the same shape is spelled over A, C, G, T:
    // ACGTA, then CC / TT unmatched, then GT.
    const std::vector<MatchBlock> expected = {
        {0, 0, 5}, {7, 7, 2}, {9, 9, 0}};
    EXPECT_EQ(matchingBlocks("ACGTACCGT", "ACGTATTGT"), expected);
    double score = gestaltScore("ACGTACCGT", "ACGTATTGT");
    EXPECT_NEAR(score, 2.0 * 7.0 / 18.0, 1e-9);
}

TEST(Gestalt, ScoreBounds)
{
    EXPECT_DOUBLE_EQ(gestaltScore("", ""), 1.0);
    EXPECT_DOUBLE_EQ(gestaltScore("ACGT", "ACGT"), 1.0);
    EXPECT_DOUBLE_EQ(gestaltScore("AAAA", "TTTT"), 0.0);
    double s = gestaltScore("ACGT", "AGT");
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
}

TEST(Gestalt, MatchingBlocksTerminatedBySentinel)
{
    auto blocks = matchingBlocks("ACGT", "ACGT");
    ASSERT_GE(blocks.size(), 2u);
    EXPECT_EQ(blocks.front().len, 4u);
    EXPECT_EQ(blocks.back().len, 0u);
    EXPECT_EQ(blocks.back().a_pos, 4u);
    EXPECT_EQ(blocks.back().b_pos, 4u);
}

TEST(Gestalt, BlocksAreConsistent)
{
    StrandFactory factory;
    Rng rng(27);
    ErrorProfile profile = ErrorProfile::uniform(0.15, 50);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 30; ++trial) {
        Strand a = factory.make(50, rng);
        Strand b = channel.transmit(a, rng);
        size_t prev_a = 0, prev_b = 0;
        for (const auto &blk : matchingBlocks(a, b)) {
            EXPECT_GE(blk.a_pos, prev_a);
            EXPECT_GE(blk.b_pos, prev_b);
            // Block content actually matches.
            for (size_t k = 0; k < blk.len; ++k)
                EXPECT_EQ(a[blk.a_pos + k], b[blk.b_pos + k]);
            prev_a = blk.a_pos + blk.len;
            prev_b = blk.b_pos + blk.len;
        }
    }
}

TEST(Gestalt, GapClassification)
{
    // sub in the middle
    auto gaps = alignedGaps("AACCGGTT", "AACTGGTT");
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].type, GapType::Substitution);

    // deletion
    gaps = alignedGaps("AACCGGTT", "AACGGTT");
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].type, GapType::Deletion);

    // insertion
    gaps = alignedGaps("AACGGTT", "AACCGGTT");
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].type, GapType::Insertion);
}

TEST(Gestalt, PaperErrorPositionExample)
{
    // r = AGTC, c = ATC: Hamming marks c1, c2, c3; gestalt marks
    // only the deletion of G at position 1.
    auto positions = gestaltErrorPositions("AGTC", "ATC");
    ASSERT_EQ(positions.size(), 1u);
    EXPECT_EQ(positions[0], 1u);
}

TEST(Gestalt, ErrorPositionsEmptyForExactCopy)
{
    EXPECT_TRUE(gestaltErrorPositions("ACGTACGT", "ACGTACGT").empty());
}

TEST(Gestalt, ErrorPositionsWithinReference)
{
    StrandFactory factory;
    Rng rng(28);
    ErrorProfile profile = ErrorProfile::uniform(0.2, 40);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 30; ++trial) {
        Strand ref = factory.make(40, rng);
        Strand copy = channel.transmit(ref, rng);
        for (size_t pos : gestaltErrorPositions(ref, copy))
            EXPECT_LT(pos, ref.size());
    }
}

TEST(Gestalt, FewerAlignedThanHammingErrors)
{
    // The paper: "The magnitude of gestalt-aligned errors is thus
    // always lower than that of Hamming errors" (for indel-shifted
    // copies).
    StrandFactory factory;
    Rng rng(29);
    ErrorProfile profile =
        ErrorProfile::uniform(0.10, 60, 0.0, 0.0, 1.0); // del-only
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 20; ++trial) {
        Strand ref = factory.make(60, rng);
        Strand copy = channel.transmit(ref, rng);
        if (copy == ref)
            continue;
        EXPECT_LE(gestaltErrorPositions(ref, copy).size(),
                  hammingErrorPositions(ref, copy).size());
    }
}

TEST(Hamming, PaperExample)
{
    // r = AGTC, c = ATC: errors at copy positions 1 and 2 (c too
    // short for position 3).
    auto positions = hammingErrorPositions("AGTC", "ATC");
    EXPECT_EQ(positions, (std::vector<size_t>{1, 2}));
}

TEST(Hamming, LongerCopyMarksTrailingPositions)
{
    auto positions = hammingErrorPositions("AC", "ACGT");
    EXPECT_EQ(positions, (std::vector<size_t>{2, 3}));
}

struct AlignCase
{
    size_t len;
    double error_rate;
};

class EditOpsProperty : public ::testing::TestWithParam<AlignCase>
{};

TEST_P(EditOpsProperty, RoundTripAndMinimality)
{
    auto [len, rate] = GetParam();
    StrandFactory factory;
    Rng rng(31 + len);
    ErrorProfile profile = ErrorProfile::uniform(rate, len);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 20; ++trial) {
        Strand ref = factory.make(len, rng);
        Strand copy = channel.transmit(ref, rng);
        auto ops = editOps(ref, copy, &rng);
        EXPECT_EQ(applyEditOps(ref, ops), copy);
        EXPECT_EQ(numErrors(ops), levenshtein(ref, copy));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EditOpsProperty,
    ::testing::Values(AlignCase{10, 0.05}, AlignCase{10, 0.30},
                      AlignCase{50, 0.05}, AlignCase{50, 0.30},
                      AlignCase{110, 0.06}, AlignCase{110, 0.15},
                      AlignCase{200, 0.10}));

namespace
{

/**
 * Reference scalar longest-match: the original character DP,
 * earliest occurrence on ties — ground truth for the bit-parallel
 * gestalt kernel, including its tie-breaking.
 */
MatchBlock
referenceLongestMatch(std::string_view a, std::string_view b,
                      size_t a_lo, size_t a_hi, size_t b_lo,
                      size_t b_hi)
{
    MatchBlock best{a_lo, b_lo, 0};
    // Raw rows, so the sanitizer lane's checked operator[] does not
    // dominate the equivalence sweeps.
    std::vector<size_t> rows(2 * (b_hi - b_lo + 1), 0);
    size_t *prev = rows.data();
    size_t *cur = prev + (b_hi - b_lo + 1);
    const char *ap = a.data();
    const char *bp = b.data();
    for (size_t i = a_lo; i < a_hi; ++i) {
        for (size_t j = b_lo; j < b_hi; ++j) {
            size_t jj = j - b_lo + 1;
            if (ap[i] == bp[j]) {
                cur[jj] = prev[jj - 1] + 1;
                if (cur[jj] > best.len) {
                    best.len = cur[jj];
                    best.a_pos = i + 1 - cur[jj];
                    best.b_pos = j + 1 - cur[jj];
                }
            } else {
                cur[jj] = 0;
            }
        }
        std::swap(prev, cur);
    }
    return best;
}

void
referenceMatchingBlocks(std::string_view a, std::string_view b,
                        size_t a_lo, size_t a_hi, size_t b_lo,
                        size_t b_hi, std::vector<MatchBlock> &out)
{
    MatchBlock m =
        referenceLongestMatch(a, b, a_lo, a_hi, b_lo, b_hi);
    if (m.len == 0)
        return;
    referenceMatchingBlocks(a, b, a_lo, m.a_pos, b_lo, m.b_pos, out);
    out.push_back(m);
    referenceMatchingBlocks(a, b, m.a_pos + m.len, a_hi,
                            m.b_pos + m.len, b_hi, out);
}

std::vector<MatchBlock>
referenceBlocks(std::string_view a, std::string_view b)
{
    std::vector<MatchBlock> blocks;
    referenceMatchingBlocks(a, b, 0, a.size(), 0, b.size(), blocks);
    blocks.push_back({a.size(), b.size(), 0});
    return blocks;
}

} // anonymous namespace

TEST(GestaltBitParallel, MatchesReferenceOnNoisyPairs)
{
    // The bit-parallel kernel must reproduce the scalar DP exactly —
    // same blocks, same tie-breaks — because gestalt-aligned error
    // curves depend on which of several equal-length matches wins.
    StrandFactory factory;
    Rng rng(0x6e57);
    ErrorProfile profile = ErrorProfile::uniform(0.08, 150);
    IdsChannelModel channel = IdsChannelModel::naive(profile);
    for (int trial = 0; trial < 40; ++trial) {
        size_t len = 1 + rng.index(150);
        Strand a = factory.make(len, rng);
        Strand b = channel.transmit(a, rng);
        EXPECT_EQ(matchingBlocks(a, b), referenceBlocks(a, b))
            << "trial " << trial;
    }
}

TEST(GestaltBitParallel, MatchesReferenceOnTieHeavyStrands)
{
    // Low-entropy strands (long runs, short alphabet periods) are
    // where multiple longest matches tie and traversal order shows.
    std::vector<std::pair<std::string, std::string>> pairs = {
        {"AAAAAA", "AAAA"},
        {"ACACACAC", "CACACA"},
        {"AAAATTTT", "TTTTAAAA"},
        {"ACGTACGTACGT", "ACGTACGT"},
        {"GGGG", "CCCC"},
        {"", "ACGT"},
        {"ACGT", ""},
        {"A", "A"},
    };
    for (const auto &[a, b] : pairs) {
        EXPECT_EQ(matchingBlocks(a, b), referenceBlocks(a, b))
            << a << " vs " << b;
    }
    // Word-boundary widths (63/64/65 columns) for the match masks.
    Rng rng(0x71e5);
    StrandFactory factory;
    for (size_t len : {size_t{63}, size_t{64}, size_t{65},
                       size_t{129}}) {
        Strand a = factory.make(len, rng);
        Strand b = factory.make(len, rng);
        EXPECT_EQ(matchingBlocks(a, b), referenceBlocks(a, b));
    }
}

TEST(GestaltBitParallel, NonAcgtContentPanics)
{
    // Strands are ACGT: either side indexes the per-base masks, and
    // any other character panics where the mask is read.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(matchingBlocks("ACGNACGT", "ACGTACGT"),
                 "invalid base character 'N'");
    EXPECT_DEATH(matchingBlocks("ACGTACGT", "ACGTNCGT"),
                 "invalid base character 'N'");
    EXPECT_DEATH(gestaltScore("ACGT", "acgt"),
                 "invalid base character 'a'");
}

namespace
{

/** A uniformly random string over the first @p letters of ACGT. */
Strand
randomOver(size_t len, size_t letters, Rng &rng)
{
    Strand s(len, 'A');
    for (char &c : s)
        c = kBaseChars[rng.index(letters)];
    return s;
}

/**
 * @p a with each base substituted, deleted or followed by an
 * insertion at rate @p rate (a third each), over @p letters letters.
 */
Strand
noisyCopy(const Strand &a, double rate, size_t letters, Rng &rng)
{
    Strand out;
    for (char c : a) {
        const double u = rng.uniform();
        if (u < rate / 3)
            out += kBaseChars[rng.index(letters)];
        else if (u < 2 * rate / 3)
            continue;
        else
            out += c;
        if (u >= 2 * rate / 3 && u < rate)
            out += kBaseChars[rng.index(letters)];
    }
    return out;
}

struct StrandPair
{
    Strand a, b;
};

/**
 * 20,000 fixed-seed pairs: lengths 0-300 (half of the draws capped
 * at 100, which keeps the reference DP affordable in the sanitizer
 * lanes) with the row-word boundaries forced in one time in eight,
 * alphabets of 1 to 4 letters (on one or two letters nearly every
 * longest match ties), and b either unrelated to a or a copy of it
 * at 0-30 % noise.
 */
const std::vector<StrandPair> &
randomPairs()
{
    static const std::vector<StrandPair> pairs = [] {
        constexpr size_t kEdges[] = {1,   63,  64,  65,  127, 128,
                                     129, 191, 192, 193, 256, 257};
        Rng rng(0x9e57a17);
        auto length = [&rng, &kEdges] {
            if (rng.index(8) == 0)
                return kEdges[rng.index(std::size(kEdges))];
            return rng.index(rng.index(2) == 0 ? 301 : 101);
        };
        std::vector<StrandPair> out;
        for (size_t k = 0; k < 20000; ++k) {
            const size_t letters = 1 + k % 4;
            StrandPair p;
            p.a = randomOver(length(), letters, rng);
            p.b = k % 2 == 0
                      ? randomOver(length(), letters, rng)
                      : noisyCopy(p.a, 0.3 * rng.uniform(), letters,
                                  rng);
            out.push_back(std::move(p));
        }
        return out;
    }();
    return pairs;
}

/** matchingBlocks() of @p p in both argument orders, concatenated. */
std::vector<MatchBlock>
bothOrders(const StrandPair &p)
{
    std::vector<MatchBlock> out = matchingBlocks(p.a, p.b);
    const std::vector<MatchBlock> back = matchingBlocks(p.b, p.a);
    out.insert(out.end(), back.begin(), back.end());
    return out;
}

std::vector<std::vector<MatchBlock>>
blocksInOrder(const std::vector<StrandPair> &pairs)
{
    std::vector<std::vector<MatchBlock>> out;
    for (const StrandPair &p : pairs)
        out.push_back(bothOrders(p));
    return out;
}

/** Restore the default thread count when a test scope exits. */
struct ThreadGuard
{
    explicit ThreadGuard(size_t n) { par::setThreads(n); }
    ~ThreadGuard() { par::setThreads(0); }
};

} // anonymous namespace

TEST(GestaltBitParallel, MatchesReferenceOnRandomPairsBothOrders)
{
    const auto &pairs = randomPairs();
    size_t mismatches = 0;
    for (size_t i = 0; i < pairs.size() && mismatches < 5; ++i) {
        const StrandPair &p = pairs[i];
        const bool ab =
            matchingBlocks(p.a, p.b) == referenceBlocks(p.a, p.b);
        const bool ba =
            matchingBlocks(p.b, p.a) == referenceBlocks(p.b, p.a);
        EXPECT_TRUE(ab && ba)
            << "pair " << i << " (" << p.a.size() << " x " << p.b.size()
            << "): " << p.a << " / " << p.b;
        mismatches += ab && ba ? 0 : 1;
    }
}

TEST(GestaltBitParallel, NoResultDependsOnAnEarlierCall)
{
    // The kernel keeps thread_local scratch. Whatever a call leaves
    // there must not reach a later call's answer, or results would
    // differ by schedule, thread and process.
    const auto &pairs = randomPairs();
    const auto expected = blocksInOrder(pairs);

    std::vector<size_t> order(pairs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Rng rng(0x5c7a);
    rng.shuffle(order);
    for (size_t i : order)
        ASSERT_EQ(bothOrders(pairs[i]), expected[i])
            << "shuffled, pair " << i;

    std::vector<std::vector<MatchBlock>> fresh;
    std::thread([&] { fresh = blocksInOrder(pairs); }).join();
    EXPECT_TRUE(fresh == expected) << "fresh thread";

    for (size_t threads : {size_t{1}, size_t{8}}) {
        ThreadGuard guard(threads);
        const auto parallel =
            par::parallelTransform(pairs.size(), [&](size_t i) {
                return bothOrders(pairs[i]);
            });
        EXPECT_TRUE(parallel == expected) << threads << " threads";
    }
}

TEST(GestaltBitParallel, FewerRowsThanTheLongestRunLevelButMoreColumns)
{
    // When a is (nearly) a substring of a wider b, the longest match
    // is as long as the rows allow, so the doubling stops on the row
    // count before any level is empty. 70 x 148 is the shape that
    // once read past the last level written.
    Rng rng(0x70148);
    for (size_t rows : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                        size_t{8}, size_t{9}, size_t{31}, size_t{33},
                        size_t{63}, size_t{64}, size_t{65}, size_t{70},
                        size_t{100}, size_t{129}, size_t{150}}) {
        for (size_t cols : {rows + 1, rows + 17, 2 * rows + 8,
                            size_t{148}, size_t{200}}) {
            if (cols <= rows)
                continue;
            for (size_t letters = 1; letters <= 4; ++letters) {
                const Strand b = randomOver(cols, letters, rng);
                const size_t at = rng.index(cols - rows + 1);
                Strand a = b.substr(at, rows);
                if (letters > 1 && rows > 4 && rng.index(2) == 0)
                    a[rows / 2] = a[rows / 2] == 'A' ? 'C' : 'A';
                EXPECT_EQ(matchingBlocks(a, b), referenceBlocks(a, b))
                    << rows << " x " << cols << " over " << letters;
                EXPECT_EQ(matchingBlocks(b, a), referenceBlocks(b, a))
                    << cols << " x " << rows << " over " << letters;
            }
        }
    }
}

TEST(GestaltBitParallel, OverCapSubProblemsMatchReference)
{
    // A rectangle whose doubling levels would exceed the per-thread
    // scratch cap (about 3,100 x 3,100 bases and up) runs the one-row
    // scalar kernel; its sub-problems drop back under the cap and
    // double. Both must give the reference blocks.
    Rng rng(0x0ca9);
    const Strand a = randomOver(4000, 4, rng);
    const Strand b = noisyCopy(a, 0.05, 4, rng);
    EXPECT_EQ(align_detail::longestMatch(a, b, 0, a.size(), 0, b.size()),
              referenceLongestMatch(a, b, 0, a.size(), 0, b.size()));
    EXPECT_EQ(matchingBlocks(a, b), referenceBlocks(a, b));
    EXPECT_EQ(matchingBlocks(b, a), referenceBlocks(b, a));
}

TEST(GestaltBitParallel, LongestMatchOnSubRectangles)
{
    // The recursion's sub-problems, driven directly: any window of a
    // against any window of b, empty windows included.
    Rng rng(0x5ab7ec);
    const auto &pairs = randomPairs();
    for (size_t k = 0; k < 4000; ++k) {
        const StrandPair &p = pairs[rng.index(pairs.size())];
        const size_t a_lo = rng.index(p.a.size() + 1);
        const size_t a_hi = a_lo + rng.index(p.a.size() - a_lo + 1);
        const size_t b_lo = rng.index(p.b.size() + 1);
        const size_t b_hi = b_lo + rng.index(p.b.size() - b_lo + 1);
        EXPECT_EQ(align_detail::longestMatch(p.a, p.b, a_lo, a_hi, b_lo,
                                             b_hi),
                  referenceLongestMatch(p.a, p.b, a_lo, a_hi, b_lo, b_hi))
            << "[" << a_lo << ", " << a_hi << ") x [" << b_lo << ", "
            << b_hi << ") of " << p.a << " / " << p.b;
    }
}

} // namespace
} // namespace dnasim
