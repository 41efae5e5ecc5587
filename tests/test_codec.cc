/**
 * @file
 * Unit and property tests for the codec library: GF(256)
 * arithmetic, Reed-Solomon coding, the DNA codecs, framing with
 * CRC-8, and XOR-group redundancy as one-parity Reed-Solomon
 * (test_pipeline.cc covers it across strands).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.hh"
#include "codec/dna_codec.hh"
#include "codec/framing.hh"
#include "codec/gf256.hh"
#include "codec/reed_solomon.hh"

namespace dnasim
{
namespace
{

Bytes
randomBytes(size_t n, Rng &rng)
{
    Bytes out(n);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.uniformInt(0, 255));
    return out;
}

TEST(Gf256, MultiplicationAxioms)
{
    Rng rng(130);
    for (int trial = 0; trial < 200; ++trial) {
        uint8_t a = static_cast<uint8_t>(rng.uniformInt(0, 255));
        uint8_t b = static_cast<uint8_t>(rng.uniformInt(0, 255));
        uint8_t c = static_cast<uint8_t>(rng.uniformInt(0, 255));
        // commutativity and associativity
        EXPECT_EQ(gf256::mul(a, b), gf256::mul(b, a));
        EXPECT_EQ(gf256::mul(gf256::mul(a, b), c),
                  gf256::mul(a, gf256::mul(b, c)));
        // identity and zero
        EXPECT_EQ(gf256::mul(a, 1), a);
        EXPECT_EQ(gf256::mul(a, 0), 0);
        // distributivity over XOR (field addition)
        EXPECT_EQ(gf256::mul(a, b ^ c),
                  gf256::mul(a, b) ^ gf256::mul(a, c));
    }
}

TEST(Gf256, InverseAndDivision)
{
    for (int a = 1; a < 256; ++a) {
        uint8_t inv = gf256::inv(static_cast<uint8_t>(a));
        EXPECT_EQ(gf256::mul(static_cast<uint8_t>(a), inv), 1)
            << "a=" << a;
        EXPECT_EQ(gf256::div(static_cast<uint8_t>(a),
                             static_cast<uint8_t>(a)),
                  1);
    }
    EXPECT_EQ(gf256::div(0, 7), 0);
}

TEST(Gf256, PowAndLog)
{
    EXPECT_EQ(gf256::alphaPow(0), 1);
    EXPECT_EQ(gf256::alphaPow(1), 2);
    EXPECT_EQ(gf256::alphaPow(255), 1); // order of the group
    for (int e = 0; e < 255; ++e) {
        uint8_t x = gf256::alphaPow(e);
        EXPECT_EQ(gf256::alphaLog(x), e);
    }
    EXPECT_EQ(gf256::pow(2, -1), gf256::inv(2));
}

TEST(Gf256, PolyEval)
{
    // p(x) = x^2 + 1 evaluated at alpha: alpha^2 ^ 1.
    std::vector<uint8_t> p = {1, 0, 1};
    EXPECT_EQ(gf256::polyEval(p, 2),
              static_cast<uint8_t>(gf256::mul(2, 2) ^ 1));
    EXPECT_EQ(gf256::polyEval({}, 5), 0);
}

TEST(Gf256, PolyMulDegrees)
{
    std::vector<uint8_t> a = {1, 2};    // x + 2
    std::vector<uint8_t> b = {1, 0, 3}; // x^2 + 3
    auto c = gf256::polyMul(a, b);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c[0], 1); // leading coefficient
}

TEST(ReedSolomon, EncodeAppendsParity)
{
    ReedSolomon rs(8);
    Bytes data = {1, 2, 3, 4, 5};
    auto codeword = rs.encode(data);
    ASSERT_EQ(codeword.size(), 13u);
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           codeword.begin()));
    EXPECT_TRUE(rs.isValid(codeword));
}

TEST(ReedSolomon, CleanDecode)
{
    ReedSolomon rs(6);
    Rng rng(131);
    Bytes data = randomBytes(40, rng);
    auto decoded = rs.decode(rs.encode(data));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
}

TEST(ReedSolomon, CorrectsErrorsUpToHalfParity)
{
    ReedSolomon rs(8); // corrects up to 4 errors
    Rng rng(132);
    for (int trial = 0; trial < 20; ++trial) {
        Bytes data = randomBytes(30, rng);
        auto codeword = rs.encode(data);
        for (int e = 0; e < 4; ++e) {
            size_t pos = rng.index(codeword.size());
            codeword[pos] ^= static_cast<uint8_t>(
                rng.uniformInt(1, 255));
        }
        auto decoded = rs.decode(codeword);
        ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
        EXPECT_EQ(*decoded, data);
    }
}

TEST(ReedSolomon, CorrectsErasuresUpToParity)
{
    ReedSolomon rs(8); // corrects up to 8 erasures
    Rng rng(133);
    for (int trial = 0; trial < 20; ++trial) {
        Bytes data = randomBytes(30, rng);
        auto codeword = rs.encode(data);
        std::vector<size_t> erasures;
        while (erasures.size() < 8) {
            size_t pos = rng.index(codeword.size());
            if (std::find(erasures.begin(), erasures.end(), pos) ==
                erasures.end()) {
                erasures.push_back(pos);
            }
        }
        for (size_t pos : erasures)
            codeword[pos] = 0; // erased symbols read as zero
        auto decoded = rs.decode(codeword, erasures);
        ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
        EXPECT_EQ(*decoded, data);
    }
}

TEST(ReedSolomon, CorrectsMixedErrataWithinBudget)
{
    ReedSolomon rs(8); // 2e + s <= 8
    Rng rng(134);
    for (int trial = 0; trial < 20; ++trial) {
        Bytes data = randomBytes(25, rng);
        auto codeword = rs.encode(data);
        // 2 errors + 4 erasures: 2*2 + 4 = 8, exactly the budget.
        std::vector<size_t> positions;
        while (positions.size() < 6) {
            size_t pos = rng.index(codeword.size());
            if (std::find(positions.begin(), positions.end(), pos) ==
                positions.end()) {
                positions.push_back(pos);
            }
        }
        std::vector<size_t> erasures(positions.begin(),
                                     positions.begin() + 4);
        for (size_t pos : erasures)
            codeword[pos] = 0;
        for (size_t k = 4; k < 6; ++k)
            codeword[positions[k]] ^= 0x5a;
        auto decoded = rs.decode(codeword, erasures);
        ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
        EXPECT_EQ(*decoded, data);
    }
}

TEST(ReedSolomon, FailsBeyondBudget)
{
    ReedSolomon rs(4); // corrects up to 2 errors
    Rng rng(135);
    Bytes data = randomBytes(20, rng);
    size_t failures = 0;
    for (int trial = 0; trial < 30; ++trial) {
        auto codeword = rs.encode(data);
        // 5 errors: beyond any RS(n, k) with 4 parity symbols.
        std::vector<size_t> positions;
        while (positions.size() < 5) {
            size_t pos = rng.index(codeword.size());
            if (std::find(positions.begin(), positions.end(), pos) ==
                positions.end()) {
                positions.push_back(pos);
            }
        }
        for (size_t pos : positions)
            codeword[pos] ^= static_cast<uint8_t>(
                rng.uniformInt(1, 255));
        auto decoded = rs.decode(codeword, {});
        // Either detection (nullopt) or, rarely, miscorrection to a
        // different codeword — but never a silent wrong "success"
        // that still equals the data.
        if (!decoded.has_value())
            ++failures;
        else
            EXPECT_NE(*decoded, data);
    }
    EXPECT_GT(failures, 20u);
}

TEST(ReedSolomon, RejectsOversizedErasureList)
{
    ReedSolomon rs(4);
    Bytes data = {1, 2, 3};
    auto codeword = rs.encode(data);
    std::vector<size_t> erasures = {0, 1, 2, 3, 4};
    EXPECT_FALSE(rs.decode(codeword, erasures).has_value());
}

class ReedSolomonParity : public ::testing::TestWithParam<size_t>
{};

TEST_P(ReedSolomonParity, FullErasureBudget)
{
    size_t parity = GetParam();
    ReedSolomon rs(parity);
    Rng rng(136 + parity);
    Bytes data = randomBytes(20, rng);
    auto codeword = rs.encode(data);
    // Distinct erasure positions spread over the codeword.
    std::vector<size_t> all_positions(codeword.size());
    for (size_t i = 0; i < all_positions.size(); ++i)
        all_positions[i] = i;
    rng.shuffle(all_positions);
    std::vector<size_t> erasures(all_positions.begin(),
                                 all_positions.begin() +
                                     static_cast<ptrdiff_t>(parity));
    for (size_t pos : erasures)
        codeword[pos] = 0xff;
    auto decoded = rs.decode(codeword, erasures);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
}

INSTANTIATE_TEST_SUITE_P(ParitySweep, ReedSolomonParity,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(RotatingCodecTest, RoundTrip)
{
    RotatingCodec codec;
    Rng rng(138);
    for (size_t n : {size_t(0), size_t(1), size_t(5), size_t(13),
                     size_t(40)}) {
        Bytes data = randomBytes(n, rng);
        Strand strand = codec.encode(data);
        EXPECT_EQ(strand.size(), codec.encodedLength(n));
        auto decoded = codec.decode(strand, n);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(*decoded, data);
    }
}

TEST(RotatingCodecTest, NoHomopolymers)
{
    RotatingCodec codec;
    Rng rng(139);
    for (int trial = 0; trial < 20; ++trial) {
        Bytes data = randomBytes(25, rng);
        Strand strand = codec.encode(data);
        EXPECT_LE(maxHomopolymerRun(strand), 1u);
    }
    // Worst case: all-zero and all-ones payloads.
    EXPECT_LE(maxHomopolymerRun(codec.encode(Bytes(20, 0x00))), 1u);
    EXPECT_LE(maxHomopolymerRun(codec.encode(Bytes(20, 0xff))), 1u);
}

TEST(RotatingCodecTest, DetectsRepeatedBaseCorruption)
{
    RotatingCodec codec;
    Bytes data = {1, 2, 3, 4, 5};
    Strand strand = codec.encode(data);
    // Force a homopolymer, which is invalid for the rotating code.
    strand[3] = strand[2];
    EXPECT_FALSE(codec.decode(strand, data.size()).has_value());
}

TEST(RotatingCodecTest, RefusesBlocksPastFortyBits)
{
    RotatingCodec codec;
    // A block of all-2 trits holds 3^26 - 1, a value no 40-bit block
    // encodes to. Trit 2 is the last base that differs from the
    // previous one ('A' before the first block).
    auto appendAllTwos = [](Strand &strand) {
        for (size_t i = 0; i < RotatingCodec::kBlockTrits; ++i) {
            const char prev = strand.empty() ? 'A' : strand.back();
            char last = prev;
            for (char c : kBaseChars)
                if (c != prev)
                    last = c;
            strand.push_back(last);
        }
    };
    Strand first;
    appendAllTwos(first);
    EXPECT_FALSE(codec.decode(first, 5).has_value());
    Strand second = codec.encode(Bytes{1, 2, 3, 4, 5});
    appendAllTwos(second);
    EXPECT_FALSE(codec.decode(second, 10).has_value());
    // The valid first block alone still decodes.
    EXPECT_TRUE(codec.decode(second, 5).has_value());

    // Every value encode() writes still decodes, the largest 40-bit
    // block (all 0xff) included.
    for (const Bytes &data : {Bytes(5, 0x00), Bytes(5, 0xff),
                              Bytes(13, 0xff), Bytes{0xff}}) {
        const auto out = codec.decode(codec.encode(data), data.size());
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(*out, data);
    }
    Rng rng(0x40b);
    for (int trial = 0; trial < 2000; ++trial) {
        const Bytes data = randomBytes(rng.index(41), rng);
        const auto out = codec.decode(codec.encode(data), data.size());
        ASSERT_TRUE(out.has_value()) << "trial " << trial;
        EXPECT_EQ(*out, data);
    }
}

TEST(Crc8, DetectsSingleByteCorruption)
{
    Rng rng(140);
    for (int trial = 0; trial < 50; ++trial) {
        Bytes data = randomBytes(16, rng);
        uint8_t crc = crc8(data);
        size_t pos = rng.index(data.size());
        data[pos] ^= static_cast<uint8_t>(rng.uniformInt(1, 255));
        EXPECT_NE(crc8(data), crc);
    }
}

TEST(FrameCodecTest, SplitPadsAndIndexes)
{
    FrameCodec codec(4);
    Bytes data = {1, 2, 3, 4, 5, 6};
    auto frames = codec.split(data);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].index, 0u);
    EXPECT_EQ(frames[1].index, 1u);
    EXPECT_EQ(frames[1].payload, (Bytes{5, 6, 0, 0}));
}

TEST(FrameCodecTest, PackUnpackRoundTrip)
{
    FrameCodec codec(6, 2);
    Frame f;
    f.index = 0x1234;
    f.payload = {9, 8, 7, 6, 5, 4};
    Bytes raw = codec.pack(f);
    EXPECT_EQ(raw.size(), codec.frameBytes());
    auto parsed = codec.unpack(raw);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->index, 0x1234u);
    EXPECT_EQ(parsed->payload, f.payload);
}

TEST(FrameCodecTest, UnpackRejectsCorruption)
{
    FrameCodec codec(6);
    Frame f;
    f.index = 3;
    f.payload = {1, 2, 3, 4, 5, 6};
    Bytes raw = codec.pack(f);
    raw[4] ^= 0x40;
    EXPECT_FALSE(codec.unpack(raw).has_value());
    Bytes wrong_size(raw.begin(), raw.end() - 1);
    EXPECT_FALSE(codec.unpack(wrong_size).has_value());
}

TEST(FrameCodecTest, ReassembleReportsMissing)
{
    FrameCodec codec(2);
    std::vector<Frame> frames = {{2, {5, 6}}, {0, {1, 2}}};
    std::vector<uint32_t> missing;
    Bytes stream = codec.reassemble(frames, 3, &missing);
    EXPECT_EQ(stream, (Bytes{1, 2, 0, 0, 5, 6}));
    EXPECT_EQ(missing, (std::vector<uint32_t>{1}));
}

TEST(FrameCodecTest, SplitEmptyMakesOneFrame)
{
    FrameCodec codec(8);
    auto frames = codec.split({});
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].payload, Bytes(8, 0));
}

// XOR-group parity (Bornholt et al.) is Reed-Solomon with one parity
// symbol: the generator is x + 1, so the parity symbol is the XOR of
// the data symbols and any one erasure is rebuilt. The pipeline runs
// it across the strands of a group, one codeword per byte column.

TEST(XorRedundancyTest, EncodeAddsParityPerGroup)
{
    ReedSolomon rs(1);
    // groups of single-byte blocks {1, 2, 3}: [b0, b1, p01], [b2, p2]
    EXPECT_EQ(rs.encode({1, 2}), (Bytes{1, 2, 3}));
    EXPECT_EQ(rs.encode({3}), (Bytes{3, 3}));
    Rng rng(140);
    for (size_t group = 1; group <= 8; ++group) {
        Bytes data = randomBytes(group, rng);
        uint8_t parity = 0;
        for (uint8_t b : data)
            parity ^= b;
        Bytes codeword = rs.encode(data);
        ASSERT_EQ(codeword.size(), group + 1);
        EXPECT_TRUE(std::equal(data.begin(), data.end(), codeword.begin()));
        EXPECT_EQ(codeword.back(), parity) << "group " << group;
    }
}

TEST(XorRedundancyTest, RecoversSingleLossPerGroup)
{
    ReedSolomon rs(1);
    Rng rng(141);
    // Every data position of groups of 1..7 blocks.
    for (size_t group = 1; group <= 7; ++group) {
        Bytes data = randomBytes(group, rng);
        const Bytes codeword = rs.encode(data);
        for (size_t lost = 0; lost < group; ++lost) {
            Bytes received = codeword;
            received[lost] ^= 0xff;
            auto decoded = rs.decode(received, {lost});
            ASSERT_TRUE(decoded.has_value())
                << "group " << group << " lost " << lost;
            EXPECT_EQ(*decoded, data);
        }
    }
}

TEST(XorRedundancyTest, FailsOnDoubleLoss)
{
    ReedSolomon rs(1);
    Bytes codeword = rs.encode({1, 2, 3});
    codeword[0] = 0;
    codeword[1] = 0;
    EXPECT_FALSE(rs.decode(codeword, {0, 1}).has_value());
}

TEST(XorRedundancyTest, LostParityIsHarmless)
{
    ReedSolomon rs(1);
    Bytes codeword = rs.encode({1, 2});
    codeword[2] = 0; // the parity symbol
    auto decoded = rs.decode(codeword, {2});
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, (Bytes{1, 2}));
}

// Fixed-seed mutation fuzzing of the three decoders on the retrieve
// side: every mutant must be refused or decode to output of the
// promised shape, never crash or read out of bounds (the ASan/UBSan
// lane runs these through ctest).

Strand
randomStrand(size_t n, Rng &rng)
{
    Strand s(n, 'A');
    for (char &c : s)
        c = kBaseChars[rng.index(kNumBases)];
    return s;
}

TEST(DecodeFuzz, RotatingCodecRefusesOrReturnsExpectedLength)
{
    RotatingCodec codec;
    Rng rng(0xf0a);
    size_t decoded = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        const size_t len = rng.index(41);
        const Bytes data = randomBytes(len, rng);
        Strand strand = codec.encode(data);
        switch (trial % 6) {
          case 0: // substitutions
            for (size_t i = 1 + rng.index(3); i-- > 0;)
                strand[rng.index(strand.size())] =
                    kBaseChars[rng.index(kNumBases)];
            break;
          case 1: // an insertion
            strand.insert(strand.begin() + static_cast<ptrdiff_t>(
                                               rng.index(strand.size() + 1)),
                          kBaseChars[rng.index(kNumBases)]);
            break;
          case 2: // a deletion
            strand.erase(strand.begin() + static_cast<ptrdiff_t>(
                                              rng.index(strand.size())));
            break;
          case 3: // truncated to empty
            strand.clear();
            break;
          case 4: // extended
            strand += randomStrand(1 + rng.index(60), rng);
            break;
          default: // any ACGT string
            strand = randomStrand(rng.index(300), rng);
        }
        const auto out = codec.decode(strand, len);
        if (out) {
            ++decoded;
            ASSERT_EQ(out->size(), len) << "trial " << trial;
        }
    }
    // Substituted, extended and random strands do decode sometimes.
    EXPECT_GT(decoded, 0u);
}

TEST(DecodeFuzz, FrameUnpackAcceptsExactlyCrcMatches)
{
    Rng rng(0xf0b);
    for (int trial = 0; trial < 3000; ++trial) {
        const FrameCodec codec(1 + rng.index(40), 1 + rng.index(4));
        Frame frame;
        frame.index = static_cast<uint32_t>(
            rng.index(size_t{1} << (8 * std::min<size_t>(
                                             codec.indexBytes(), 3))));
        frame.payload = randomBytes(codec.payloadBytes(), rng);
        Bytes raw = codec.pack(frame);
        switch (trial % 4) {
          case 0: // random bytes of any length
            raw = randomBytes(rng.index(2 * codec.frameBytes() + 2), rng);
            break;
          case 1: // truncated
            raw.resize(rng.index(raw.size()));
            break;
          case 2: // extended
            raw.push_back(static_cast<uint8_t>(rng.uniformInt(0, 255)));
            break;
          default: // bit flips
            for (size_t i = 1 + rng.index(3); i-- > 0;)
                raw[rng.index(raw.size())] ^=
                    static_cast<uint8_t>(1u << rng.index(8));
        }
        const bool crc_matches =
            raw.size() == codec.frameBytes() &&
            crc8(Bytes(raw.begin(), raw.end() - 1)) == raw.back();
        const auto out = codec.unpack(raw);
        ASSERT_EQ(out.has_value(), crc_matches) << "trial " << trial;
        if (out) {
            EXPECT_EQ(codec.pack(*out), raw) << "trial " << trial;
        }
    }
}

TEST(DecodeFuzz, ReedSolomonRefusesOrReturnsANearbyCodeword)
{
    Rng rng(0xf0c);
    for (int trial = 0; trial < 3000; ++trial) {
        const size_t parity = 1 + rng.index(16);
        const ReedSolomon rs(parity);
        std::vector<uint8_t> word;
        std::vector<size_t> erasures;
        bool within_budget = false;
        Bytes data;
        if (trial % 5 == 4) {
            // Any length from 0 to 256, any bytes.
            word = randomBytes(rng.index(257), rng);
        } else {
            data = randomBytes(1 + rng.index(255 - parity), rng);
            word = rs.encode(data);
            // Random errata: s erasures and e errors elsewhere.
            const size_t s = rng.index(parity + 2);
            const size_t e = rng.index(parity / 2 + 2);
            std::vector<size_t> order(word.size());
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            rng.shuffle(order);
            for (size_t i = 0; i < std::min(s + e, order.size()); ++i) {
                if (i < s)
                    erasures.push_back(order[i]);
                if (i >= s || rng.bernoulli(0.5))
                    word[order[i]] ^=
                        static_cast<uint8_t>(rng.uniformInt(1, 255));
            }
            within_budget = 2 * e + s <= parity && s + e <= word.size();
            if (trial % 5 == 2 && !erasures.empty()) {
                erasures.push_back(erasures[rng.index(erasures.size())]);
                within_budget = false;
            } else if (trial % 5 == 3) {
                erasures.push_back(word.size() + rng.index(4));
                within_budget = false;
            }
        }
        const std::vector<uint8_t> received = word;
        const auto out = rs.decode(word, erasures);
        if (within_budget) {
            ASSERT_TRUE(out.has_value()) << "trial " << trial;
            EXPECT_EQ(*out, data) << "trial " << trial;
        }
        if (!out)
            continue;
        ASSERT_EQ(out->size() + parity, received.size())
            << "trial " << trial;
        // The decoded data re-encodes to a codeword that differs
        // from the received word in at most parity symbols.
        const std::vector<uint8_t> codeword = rs.encode(*out);
        size_t differ = 0;
        for (size_t i = 0; i < received.size(); ++i)
            differ += codeword[i] != received[i];
        EXPECT_LE(differ, parity) << "trial " << trial;
    }
}

} // namespace
} // namespace dnasim
