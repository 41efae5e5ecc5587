/**
 * @file
 * Unit, behavioural, and property tests for the reconstruction
 * library: consensus helpers, Majority, BMA Look-Ahead, Divider BMA,
 * Iterative, and the two-way / weighted extensions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "align/edit_distance.hh"
#include "analysis/accuracy.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "core/wetlab.hh"
#include "data/strand_factory.hh"
#include "obs/stats.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/consensus.hh"
#include "reconstruct/divider_bma.hh"
#include "reconstruct/iterative.hh"
#include "reconstruct/majority.hh"
#include "reconstruct/twoway_iterative.hh"
#include "reconstruct/weighted_iterative.hh"

namespace dnasim
{
namespace
{

std::vector<const Reconstructor *>
allAlgorithms()
{
    static MajorityVote majority;
    static BmaLookahead bma;
    static BmaLookahead bma_oneway{BmaOptions{false}};
    static DividerBma divider;
    static Iterative iterative;
    static TwoWayIterative twoway;
    static WeightedIterative weighted;
    return {&majority, &bma, &bma_oneway, &divider, &iterative,
            &twoway, &weighted};
}

/** A noisy cluster of @p coverage copies at @p error_rate. */
std::vector<Strand>
noisyCluster(const Strand &ref, size_t coverage, double error_rate,
             Rng &rng)
{
    ErrorProfile profile =
        ErrorProfile::uniform(error_rate, ref.size());
    IdsChannelModel model = IdsChannelModel::naive(profile);
    std::vector<Strand> copies;
    copies.reserve(coverage);
    for (size_t i = 0; i < coverage; ++i)
        copies.push_back(model.transmit(ref, rng));
    return copies;
}

TEST(Consensus, BaseVoteWinner)
{
    Rng rng(90);
    BaseVote vote;
    EXPECT_TRUE(vote.empty());
    vote.add('G');
    vote.add('G');
    vote.add('T');
    EXPECT_EQ(vote.winner(rng), 'G');
    vote.clear();
    EXPECT_TRUE(vote.empty());
}

TEST(Consensus, BaseVoteWeighted)
{
    Rng rng(91);
    BaseVote vote;
    vote.add('A', 1.0);
    vote.add('C', 2.5);
    EXPECT_EQ(vote.winner(rng), 'C');
}

TEST(Consensus, PositionalPluralityBasics)
{
    Rng rng(93);
    std::vector<Strand> copies = {"ACGT", "ACGT", "AGGT"};
    EXPECT_EQ(positionalPlurality(copies, 4, rng), "ACGT");
}

TEST(Consensus, PositionalPluralityShortCopiesAbstain)
{
    Rng rng(94);
    std::vector<Strand> copies = {"AC", "ACGT"};
    Strand out = positionalPlurality(copies, 4, rng);
    EXPECT_EQ(out.substr(2), "GT"); // only the long copy votes
}

TEST(Consensus, PositionalPluralityWeights)
{
    Rng rng(95);
    std::vector<Strand> copies = {"AAAA", "CCCC"};
    std::vector<double> weights = {0.1, 5.0};
    EXPECT_EQ(positionalPlurality(copies, 4, rng, weights), "CCCC");
}

TEST(Consensus, AlignedConsensusKeepsTruth)
{
    // The true reference is a fixpoint given noisy copies.
    StrandFactory factory;
    Rng rng(96);
    for (int trial = 0; trial < 20; ++trial) {
        Strand ref = factory.make(80, rng);
        auto copies = noisyCluster(ref, 8, 0.06, rng);
        Strand refined = alignedConsensus(ref, copies, rng);
        EXPECT_EQ(refined, ref) << "trial " << trial;
    }
}

TEST(Consensus, AlignedConsensusFixesSubstitution)
{
    StrandFactory factory;
    Rng rng(97);
    Strand ref = factory.make(60, rng);
    std::vector<Strand> copies(5, ref);
    Strand corrupted = ref;
    corrupted[30] = corrupted[30] == 'A' ? 'C' : 'A';
    EXPECT_EQ(alignedConsensus(corrupted, copies, rng), ref);
}

TEST(Consensus, AlignedConsensusFixesIndels)
{
    StrandFactory factory;
    Rng rng(98);
    Strand ref = factory.make(60, rng);
    std::vector<Strand> copies(5, ref);

    Strand missing = ref;
    missing.erase(20, 1);
    EXPECT_EQ(alignedConsensus(missing, copies, rng), ref);

    Strand extra = ref;
    extra.insert(extra.begin() + 40, 'G');
    EXPECT_EQ(alignedConsensus(extra, copies, rng), ref);
}

TEST(Consensus, EnforceDesignLengthRepairsDrift)
{
    StrandFactory factory;
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        Strand ref = factory.make(70, rng);
        auto copies = noisyCluster(ref, 7, 0.05, rng);

        Strand broken = ref;
        broken.erase(35, 1); // one char short
        Strand fixed =
            enforceDesignLength(broken, copies, ref.size(), rng);
        EXPECT_EQ(fixed.size(), ref.size());
        EXPECT_LE(levenshtein(fixed, ref), 1u);
    }
}

TEST(Consensus, EnforceDesignLengthNoOpWhenCorrect)
{
    StrandFactory factory;
    Rng rng(100);
    Strand ref = factory.make(50, rng);
    std::vector<Strand> copies(4, ref);
    EXPECT_EQ(enforceDesignLength(ref, copies, 50, rng), ref);
}

TEST(Consensus, TotalEditDistance)
{
    std::vector<Strand> copies = {"ACGT", "ACG", "ACGTT"};
    EXPECT_EQ(totalEditDistance("ACGT", copies), 2u);
}

TEST(AllReconstructors, EmptyClusterIsErasure)
{
    Rng rng(101);
    for (const auto *algo : allAlgorithms())
        EXPECT_TRUE(algo->reconstruct({}, 110, rng).empty())
            << algo->name();
}

TEST(AllReconstructors, PerfectCopiesReconstructExactly)
{
    StrandFactory factory;
    Rng rng(102);
    Strand ref = factory.make(110, rng);
    std::vector<Strand> copies(5, ref);
    for (const auto *algo : allAlgorithms())
        EXPECT_EQ(algo->reconstruct(copies, 110, rng), ref)
            << algo->name();
}

TEST(AllReconstructors, OutputHasDesignLength)
{
    StrandFactory factory;
    Rng rng(103);
    Strand ref = factory.make(110, rng);
    auto copies = noisyCluster(ref, 6, 0.10, rng);
    for (const auto *algo : allAlgorithms()) {
        if (algo->name() == "Iterative-raw")
            continue; // deliberately variable-length
        EXPECT_EQ(algo->reconstruct(copies, 110, rng).size(), 110u)
            << algo->name();
    }
}

TEST(AllReconstructors, SubstitutionOnlyErrorsAreEasy)
{
    // With substitution-only noise and decent coverage, every
    // aligner-based algorithm should reconstruct exactly.
    StrandFactory factory;
    Rng rng(104);
    Strand ref = factory.make(110, rng);
    ErrorProfile profile =
        ErrorProfile::uniform(0.10, 110, 1.0, 0.0, 0.0);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    std::vector<Strand> copies;
    for (int i = 0; i < 9; ++i)
        copies.push_back(model.transmit(ref, rng));
    for (const auto *algo : allAlgorithms())
        EXPECT_EQ(algo->reconstruct(copies, 110, rng), ref)
            << algo->name();
}

TEST(Bma, ForwardPassAnchorsAtStart)
{
    // A copy set with heavy errors at the end: the forward pass
    // still reconstructs the head correctly.
    StrandFactory factory;
    Rng rng(105);
    Strand ref = factory.make(100, rng);
    std::vector<Strand> copies;
    for (int i = 0; i < 5; ++i) {
        Strand c = ref;
        c.resize(70 + rng.index(10)); // truncated tails
        copies.push_back(c);
    }
    Strand estimate = BmaLookahead::forwardPass(copies, 100, rng);
    EXPECT_EQ(estimate.substr(0, 60), ref.substr(0, 60));
}

/**
 * The character-path BMA forward pass the code-path kernel replaced:
 * four BaseVotes rebuilt per position, look-ahead reads bounds
 * checked against each copy. Kept as the reference the kernel must
 * match estimate for estimate and draw for draw. Returns the number
 * of look-ahead disagreements in @p lookaheads.
 */
Strand
referenceForwardPass(const std::vector<Strand> &copies,
                     size_t design_len, Rng &rng, uint64_t &lookaheads)
{
    constexpr size_t kWindow = BmaLookahead::kWindow;
    const size_t k = copies.size();
    std::vector<size_t> cursor(k, 0);
    lookaheads = 0;
    Strand estimate;
    std::array<BaseVote, kWindow + 1> votes;
    std::array<char, kWindow + 1> m{};
    for (size_t pos = 0; pos < design_len; ++pos) {
        for (auto &v : votes)
            v.clear();
        for (size_t c = 0; c < k; ++c)
            for (size_t off = 0; off <= kWindow; ++off)
                if (cursor[c] + off < copies[c].size())
                    votes[off].add(copies[c][cursor[c] + off]);
        if (votes[0].empty()) {
            estimate.push_back('A');
            continue;
        }
        const char maj = votes[0].winner(rng);
        estimate.push_back(maj);
        m[0] = maj;
        for (size_t off = 1; off <= kWindow; ++off)
            m[off] = votes[off].empty() ? '\0'
                                        : votes[off].winner(rng);
        for (size_t c = 0; c < k; ++c) {
            const Strand &copy = copies[c];
            if (cursor[c] >= copy.size())
                continue;
            if (copy[cursor[c]] == maj) {
                ++cursor[c];
                continue;
            }
            auto at = [&](size_t off) -> char {
                return cursor[c] + off < copy.size()
                           ? copy[cursor[c] + off]
                           : '\0';
            };
            auto match = [](char a, char b) {
                return a != '\0' && a == b ? 1 : 0;
            };
            ++lookaheads;
            int sub_score = 0, ins_score = 0, del_score = 0;
            for (size_t off = 1; off <= kWindow; ++off) {
                sub_score += match(at(off), m[off]);
                ins_score += match(at(off), m[off - 1]);
                del_score += match(at(off - 1), m[off]);
            }
            if (ins_score > sub_score && ins_score >= del_score)
                cursor[c] += 2;
            else if (!(del_score > sub_score && del_score > ins_score))
                ++cursor[c];
        }
    }
    return estimate;
}

/** forwardPass() against referenceForwardPass() on one cluster. */
void
expectForwardPassMatchesReference(const std::vector<Strand> &copies,
                                  size_t design_len, uint64_t seed)
{
    auto &lookaheads =
        obs::Registry::global().counter("reconstruct.bma.lookaheads");
    Rng kernel_rng(seed), reference_rng(seed);
    const uint64_t before = lookaheads.value();
    const Strand estimate =
        BmaLookahead::forwardPass(copies, design_len, kernel_rng);
    uint64_t expected_lookaheads = 0;
    EXPECT_EQ(estimate,
              referenceForwardPass(copies, design_len, reference_rng,
                                   expected_lookaheads))
        << "seed " << seed << ", " << copies.size() << " copies";
    EXPECT_TRUE(kernel_rng.engine() == reference_rng.engine())
        << "Rng consumption diverged, seed " << seed;
    EXPECT_EQ(lookaheads.value() - before, expected_lookaheads)
        << "seed " << seed;
}

TEST(Bma, ForwardPassMatchesCharPathReference)
{
    // Randomized clusters, coverage 1-40, over the roundtrip channel
    // and uniform IDS noise up to 20 %, at design lengths around the
    // reference's.
    Rng rng(0xb3a);
    IdsChannelModel full = IdsChannelModel::full(
        NanoporeDatasetGenerator::groundTruthProfile(130, 0.04));
    for (uint64_t trial = 0; trial < 160; ++trial) {
        const size_t len = trial % 2 == 0 ? 130 : 20 + rng.index(120);
        Strand ref(len, 'A');
        for (char &c : ref)
            c = kBaseChars[rng.index(kNumBases)];
        const size_t coverage = 1 + rng.index(40);
        std::vector<Strand> copies;
        if (len == 130) {
            for (size_t i = 0; i < coverage; ++i)
                copies.push_back(full.transmit(ref, rng));
        } else {
            copies = noisyCluster(ref, coverage,
                                  0.01 + 0.19 * rng.uniform(), rng);
        }
        const size_t design_len = len + rng.index(7) - 3;
        expectForwardPassMatchesReference(copies, design_len, trial);
    }
}

TEST(Bma, ForwardPassEdgeShapesMatchCharPathReference)
{
    StrandFactory factory;
    Rng rng(0xb3b);
    const Strand ref = factory.make(40, rng);
    Strand sub = ref;
    sub[17] = sub[17] == 'A' ? 'C' : 'A';
    Strand before_last = ref;
    before_last.insert(before_last.size() - 1, "G");
    const std::vector<std::vector<Strand>> clusters = {
        {},                                       // no copies
        {""},                                     // one empty copy
        {"", ""},                                 // only empty copies
        {"", ref, sub},                           // an empty copy
        {"AC", "G", "ACG", "T"},                  // shorter than the window
        {"A", "C"},                               // a tie at every column
        {ref.substr(0, 20), sub.substr(0, 26),    // every cursor runs
         ref.substr(3, 22)},                      // off before the end
        {ref + "T", before_last, ref + "C", ref}, // last-base insertions
        {sub},                                    // a single copy
    };
    for (size_t i = 0; i < clusters.size(); ++i)
        for (size_t design_len : {size_t{0}, size_t{1}, size_t{12},
                                  size_t{40}, size_t{47}})
            expectForwardPassMatchesReference(clusters[i], design_len,
                                              100 * i + design_len);
}

TEST(Bma, ForwardPassWideClusterMatchesReference)
{
    // More copies than a 16-bit tally field holds: one noisy cluster,
    // and one split evenly between two strands, so every column where
    // they differ ties at 35,000 votes and draws.
    Rng rng(0xb3d);
    StrandFactory factory;
    const Strand ref = factory.make(40, rng);
    const Strand other = factory.make(40, rng);
    const std::vector<Strand> noisy = noisyCluster(ref, 70000, 0.1, rng);
    std::vector<Strand> split(35000, ref);
    split.insert(split.end(), 35000, other);
    for (size_t design_len : {size_t{40}, size_t{43}}) {
        expectForwardPassMatchesReference(noisy, design_len, design_len);
        expectForwardPassMatchesReference(split, design_len,
                                          7 * design_len);
    }
}

TEST(Bma, ForwardPassTiesMatchReference)
{
    // Clusters of 2, 4 and 6 copies made of two or three strands in
    // equal numbers, so most columns tie and the draws decide them,
    // and of three strands of distinct lengths, so the two left after
    // one runs off tie wherever they differ.
    Rng rng(0xb3e);
    StrandFactory factory;
    for (uint64_t trial = 0; trial < 160; ++trial) {
        const bool staggered = trial % 4 == 3;
        const size_t copies_n = staggered ? 3 : 2 + 2 * (trial % 3);
        const size_t kinds = staggered || (copies_n == 6 && trial % 2)
                                 ? 3
                                 : 2;
        std::vector<Strand> kind;
        for (size_t i = 0; i < kinds; ++i)
            kind.push_back(factory.make(
                staggered ? 20 + 3 * i : 12 + rng.index(30), rng));
        std::vector<Strand> copies;
        for (size_t i = 0; i < copies_n; ++i)
            copies.push_back(kind[i % kinds]);
        const size_t design_len = 10 + rng.index(35);
        expectForwardPassMatchesReference(copies, design_len, trial);
    }
}

/**
 * Two-way BMA composed from the reference pass: a pass over the
 * copies, a pass over reversed strings, the forward half joined to
 * the reversed backward half.
 */
Strand
composedTwoWay(const std::vector<Strand> &copies, size_t design_len,
               Rng &rng, uint64_t &lookaheads)
{
    lookaheads = 0;
    if (copies.empty())
        return Strand();
    uint64_t forward_lookaheads = 0, backward_lookaheads = 0;
    const Strand forward =
        referenceForwardPass(copies, design_len, rng, forward_lookaheads);
    std::vector<Strand> reversed;
    for (const Strand &c : copies)
        reversed.push_back(reverseStrand(c));
    const Strand backward = referenceForwardPass(
        reversed, design_len, rng, backward_lookaheads);
    lookaheads = forward_lookaheads + backward_lookaheads;
    const size_t front_len = (design_len + 1) / 2;
    Strand back = backward.substr(0, design_len - front_len);
    std::reverse(back.begin(), back.end());
    return forward.substr(0, front_len) + back;
}

TEST(Bma, TwoWayMatchesComposedReference)
{
    auto &lookaheads =
        obs::Registry::global().counter("reconstruct.bma.lookaheads");
    const BmaLookahead bma;
    Rng rng(0xb3f);
    for (uint64_t trial = 0; trial < 200; ++trial) {
        const size_t len = 1 + rng.index(60);
        Strand ref(len, 'A');
        for (char &c : ref)
            c = kBaseChars[rng.index(kNumBases)];
        std::vector<Strand> copies = noisyCluster(
            ref, rng.index(13), 0.02 + 0.15 * rng.uniform(), rng);
        if (trial % 4 == 1)
            copies.insert(copies.begin() + static_cast<ptrdiff_t>(
                                               rng.index(copies.size() + 1)),
                          Strand());
        for (size_t design_len :
             {size_t{0}, size_t{1}, len, len + 1, 2 * (len / 2) + 2}) {
            Rng kernel_rng(trial), reference_rng(trial);
            const uint64_t before = lookaheads.value();
            const Strand estimate =
                bma.reconstruct(copies, design_len, kernel_rng);
            uint64_t expected_lookaheads = 0;
            EXPECT_EQ(estimate,
                      composedTwoWay(copies, design_len, reference_rng,
                                     expected_lookaheads))
                << "trial " << trial << ", design length " << design_len;
            EXPECT_TRUE(kernel_rng.engine() == reference_rng.engine())
                << "Rng consumption diverged, trial " << trial;
            EXPECT_EQ(lookaheads.value() - before, expected_lookaheads)
                << "trial " << trial;
        }
    }
}

TEST(Bma, ForwardPassPanicsOnNonAcgt)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(0xb3c);
    const std::vector<Strand> copies = {"ACGTACGT", "ACGNACGT"};
    EXPECT_DEATH(BmaLookahead::forwardPass(copies, 8, rng),
                 "invalid base character 'N'");
}

TEST(Bma, TwoWayBeatsOneWayOnUniformNoise)
{
    StrandFactory factory;
    Rng rng(106);
    BmaLookahead twoway;
    BmaLookahead oneway{BmaOptions{false}};
    size_t two_correct = 0, one_correct = 0;
    for (int trial = 0; trial < 60; ++trial) {
        Strand ref = factory.make(110, rng);
        auto copies = noisyCluster(ref, 6, 0.08, rng);
        Rng r1(trial), r2(trial);
        two_correct +=
            twoway.reconstruct(copies, 110, r1) == ref ? 1 : 0;
        one_correct +=
            oneway.reconstruct(copies, 110, r2) == ref ? 1 : 0;
    }
    EXPECT_GE(two_correct, one_correct);
}

TEST(Bma, NameReflectsMode)
{
    EXPECT_EQ(BmaLookahead().name(), "BMA");
    EXPECT_EQ(BmaLookahead(BmaOptions{false}).name(), "BMA-oneway");
}

TEST(DividerBmaTest, ExactOnCleanEqualLengthCopies)
{
    StrandFactory factory;
    Rng rng(107);
    Strand ref = factory.make(110, rng);
    // A couple of substitution-corrupted copies of exact length.
    std::vector<Strand> copies(5, ref);
    copies[0][10] = copies[0][10] == 'A' ? 'C' : 'A';
    copies[1][90] = copies[1][90] == 'G' ? 'T' : 'G';
    EXPECT_EQ(DividerBma().reconstruct(copies, 110, rng), ref);
}

TEST(DividerBmaTest, DegradesOnIndelHeavyClusters)
{
    // The collapse from Table 2.1: with indel-heavy copies the
    // divider heuristic falls well behind Iterative.
    StrandFactory factory;
    Rng rng(108);
    DividerBma divider;
    Iterative iterative;
    size_t div_correct = 0, iter_correct = 0;
    for (int trial = 0; trial < 40; ++trial) {
        Strand ref = factory.make(110, rng);
        auto copies = noisyCluster(ref, 10, 0.06, rng);
        Rng r1(trial), r2(trial);
        div_correct +=
            divider.reconstruct(copies, 110, r1) == ref ? 1 : 0;
        iter_correct +=
            iterative.reconstruct(copies, 110, r2) == ref ? 1 : 0;
    }
    EXPECT_LT(div_correct + 10, iter_correct);
}

TEST(IterativeTest, SingleCopyReturnsCopyDerivedEstimate)
{
    StrandFactory factory;
    Rng rng(109);
    Strand ref = factory.make(110, rng);
    std::vector<Strand> copies = {ref};
    EXPECT_EQ(Iterative().reconstruct(copies, 110, rng), ref);
}

TEST(IterativeTest, RawVariantMayBeShort)
{
    // Deletion-only noise: the raw variant's consensus tends to lose
    // characters, the enforced variant never does.
    StrandFactory factory;
    Rng rng(110);
    ErrorProfile profile =
        ErrorProfile::uniform(0.12, 110, 0.0, 0.0, 1.0);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    IterativeOptions raw_options;
    raw_options.enforce_length = false;
    Iterative raw(raw_options);
    Iterative enforced;

    size_t raw_short = 0;
    for (int trial = 0; trial < 30; ++trial) {
        Strand ref = factory.make(110, rng);
        std::vector<Strand> copies;
        for (int i = 0; i < 4; ++i)
            copies.push_back(model.transmit(ref, rng));
        Rng r1(trial), r2(trial);
        Strand raw_est = raw.reconstruct(copies, 110, r1);
        raw_short += raw_est.size() < 110 ? 1 : 0;
        EXPECT_EQ(enforced.reconstruct(copies, 110, r2).size(),
                  110u);
    }
    EXPECT_GT(raw_short, 0u);
}

TEST(IterativeTest, BeatsMajorityOnIndelNoise)
{
    StrandFactory factory;
    Rng rng(111);
    Iterative iterative;
    MajorityVote majority;
    size_t iter_correct = 0, maj_correct = 0;
    for (int trial = 0; trial < 40; ++trial) {
        Strand ref = factory.make(110, rng);
        auto copies = noisyCluster(ref, 6, 0.06, rng);
        Rng r1(trial), r2(trial);
        iter_correct +=
            iterative.reconstruct(copies, 110, r1) == ref ? 1 : 0;
        maj_correct +=
            majority.reconstruct(copies, 110, r2) == ref ? 1 : 0;
    }
    EXPECT_GT(iter_correct, maj_correct + 10);
}

TEST(IterativeTest, NamesReflectMode)
{
    EXPECT_EQ(Iterative().name(), "Iterative");
    IterativeOptions raw;
    raw.enforce_length = false;
    EXPECT_EQ(Iterative(raw).name(), "Iterative-raw");
}

TEST(TwoWayIterativeTest, MatchesOneWayOnCleanData)
{
    StrandFactory factory;
    Rng rng(112);
    Strand ref = factory.make(110, rng);
    std::vector<Strand> copies(5, ref);
    EXPECT_EQ(TwoWayIterative().reconstruct(copies, 110, rng), ref);
}

TEST(WeightedIterativeTest, DownweightsAlienCopies)
{
    // Clusters polluted with alien copies: weighting should never be
    // worse, and usually better, than unweighted voting.
    StrandFactory factory;
    Rng rng(113);
    Iterative plain;
    WeightedIterative weighted;
    size_t plain_correct = 0, weighted_correct = 0;
    for (int trial = 0; trial < 40; ++trial) {
        Strand ref = factory.make(110, rng);
        auto copies = noisyCluster(ref, 5, 0.05, rng);
        // Two aliens from another reference.
        Strand alien = factory.make(110, rng);
        copies.push_back(alien);
        copies.push_back(alien);
        Rng r1(trial), r2(trial);
        plain_correct +=
            plain.reconstruct(copies, 110, r1) == ref ? 1 : 0;
        weighted_correct +=
            weighted.reconstruct(copies, 110, r2) == ref ? 1 : 0;
    }
    EXPECT_GE(weighted_correct + 3, plain_correct);
    EXPECT_GT(weighted_correct, 20u);
}

struct ReconstructCase
{
    double error_rate;
    size_t coverage;
    double min_per_char; ///< expected per-char accuracy floor
};

class ReconstructionQuality
    : public ::testing::TestWithParam<ReconstructCase>
{};

TEST_P(ReconstructionQuality, IterativePerCharFloor)
{
    auto [rate, coverage, floor] = GetParam();
    StrandFactory factory;
    Rng rng(114);
    ErrorProfile profile = ErrorProfile::uniform(rate, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    ChannelSimulator sim(model);
    auto refs = factory.makeMany(40, 110, rng);
    FixedCoverage cov(coverage);
    Dataset data = sim.simulate(refs, cov, rng);

    Iterative iterative;
    Rng eval(115);
    AccuracyResult acc = evaluateAccuracy(data, iterative, eval);
    EXPECT_GT(acc.perChar(), floor)
        << "rate " << rate << " coverage " << coverage;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReconstructionQuality,
    ::testing::Values(ReconstructCase{0.03, 5, 0.97},
                      ReconstructCase{0.06, 5, 0.93},
                      ReconstructCase{0.06, 10, 0.97},
                      ReconstructCase{0.10, 10, 0.93},
                      ReconstructCase{0.15, 10, 0.85}));

TEST(ReconstructionOrdering, MoreCoverageNeverMuchWorse)
{
    // Per-char accuracy at coverage 10 should beat coverage 3 for
    // the same channel (Fig 3.3's monotone region).
    StrandFactory factory;
    Rng rng(116);
    ErrorProfile profile = ErrorProfile::uniform(0.08, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    ChannelSimulator sim(model);
    auto refs = factory.makeMany(40, 110, rng);

    Iterative iterative;
    double acc3, acc10;
    {
        FixedCoverage cov(3);
        Rng r(117);
        Dataset data = sim.simulate(refs, cov, r);
        Rng eval(118);
        acc3 = evaluateAccuracy(data, iterative, eval).perChar();
    }
    {
        FixedCoverage cov(10);
        Rng r(119);
        Dataset data = sim.simulate(refs, cov, r);
        Rng eval(120);
        acc10 = evaluateAccuracy(data, iterative, eval).perChar();
    }
    EXPECT_GT(acc10, acc3);
}

} // namespace
} // namespace dnasim
