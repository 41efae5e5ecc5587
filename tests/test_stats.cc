/**
 * @file
 * Unit tests for the stats library: histograms, chi-square
 * distance, distributions, and positional profiles.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/rng.hh"
#include "stats/distributions.hh"
#include "stats/histogram.hh"
#include "stats/position_profile.hh"

namespace dnasim
{
namespace
{

TEST(Histogram, StartsEmpty)
{
    Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.numBins(), 0u);
    EXPECT_EQ(h.count(5), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(5), 0.0);
}

TEST(Histogram, AddGrowsBins)
{
    Histogram h;
    h.add(3);
    h.add(3, 2);
    h.add(0);
    EXPECT_EQ(h.numBins(), 4u);
    EXPECT_EQ(h.count(3), 3u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, FractionAndNormalized)
{
    Histogram h;
    h.add(0, 1);
    h.add(1, 3);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.75);
    auto norm = h.normalized();
    ASSERT_EQ(norm.size(), 2u);
    EXPECT_DOUBLE_EQ(norm[0] + norm[1], 1.0);
}

TEST(Histogram, Merge)
{
    Histogram a, b;
    a.add(1, 2);
    b.add(1, 3);
    b.add(5, 1);
    a.merge(b);
    EXPECT_EQ(a.count(1), 5u);
    EXPECT_EQ(a.count(5), 1u);
}

TEST(Histogram, ClearKeepsBins)
{
    Histogram h;
    h.add(7);
    h.clear();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.numBins(), 8u);
}

TEST(ChiSquare, IdenticalIsZero)
{
    Histogram a, b;
    for (size_t i = 0; i < 5; ++i) {
        a.add(i, i + 1);
        b.add(i, 2 * (i + 1)); // same shape, double mass
    }
    EXPECT_NEAR(chiSquareDistance(a, b), 0.0, 1e-12);
}

TEST(ChiSquare, DisjointIsOne)
{
    Histogram a, b;
    a.add(0, 10);
    b.add(1, 10);
    EXPECT_NEAR(chiSquareDistance(a, b), 1.0, 1e-12);
}

TEST(ChiSquare, Bounded)
{
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        Histogram a, b;
        for (size_t i = 0; i < 10; ++i) {
            a.add(i, static_cast<uint64_t>(rng.uniformInt(0, 20)));
            b.add(i, static_cast<uint64_t>(rng.uniformInt(0, 20)));
        }
        if (a.total() == 0 || b.total() == 0)
            continue;
        double d = chiSquareDistance(a, b);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0 + 1e-12);
    }
}

TEST(ChiSquare, SymmetricInArguments)
{
    Histogram a, b;
    a.add(0, 3);
    a.add(2, 7);
    b.add(1, 5);
    b.add(2, 5);
    EXPECT_DOUBLE_EQ(chiSquareDistance(a, b),
                     chiSquareDistance(b, a));
}

TEST(CumulativeSampler, RespectsWeights)
{
    CumulativeSampler sampler({1.0, 0.0, 2.0, 1.0});
    EXPECT_TRUE(sampler.valid());
    EXPECT_DOUBLE_EQ(sampler.probability(0), 0.25);
    EXPECT_DOUBLE_EQ(sampler.probability(1), 0.0);
    EXPECT_DOUBLE_EQ(sampler.probability(2), 0.5);

    Rng rng(10);
    std::array<int, 4> counts{};
    for (int i = 0; i < 8000; ++i)
        ++counts[sampler.sample(rng)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[2] / 8000.0, 0.5, 0.03);
}

TEST(CumulativeSampler, DefaultInvalid)
{
    CumulativeSampler sampler;
    EXPECT_FALSE(sampler.valid());
}

TEST(PositionProfile, DefaultIsUniform)
{
    PositionProfile p;
    EXPECT_TRUE(p.isUniform());
    EXPECT_DOUBLE_EQ(p.multiplier(0, 110), 1.0);
    EXPECT_DOUBLE_EQ(p.multiplier(109, 110), 1.0);
}

TEST(PositionProfile, UniformFactoryMeanOne)
{
    auto p = PositionProfile::uniform(50);
    for (size_t i = 0; i < 50; ++i)
        EXPECT_DOUBLE_EQ(p.multiplier(i, 50), 1.0);
}

TEST(PositionProfile, MeanMultiplierIsOne)
{
    for (auto p : {PositionProfile::terminalSkew(110, 4.0, 8.0),
                   PositionProfile::aShaped(110),
                   PositionProfile::vShaped(110)}) {
        double sum = 0.0;
        for (size_t i = 0; i < 110; ++i)
            sum += p.multiplier(i, 110);
        EXPECT_NEAR(sum / 110.0, 1.0, 1e-9) << p.str();
    }
}

TEST(PositionProfile, TerminalSkewShape)
{
    auto p = PositionProfile::terminalSkew(110, 4.0, 8.0, 2);
    double head = p.multiplier(0, 110);
    double interior = p.multiplier(55, 110);
    double tail = p.multiplier(109, 110);
    EXPECT_GT(head, interior);
    EXPECT_GT(tail, head); // end heavier than beginning
    EXPECT_NEAR(head / interior, 4.0, 1e-9);
    EXPECT_NEAR(tail / interior, 8.0, 1e-9);
}

TEST(PositionProfile, AShapePeaksMiddle)
{
    auto p = PositionProfile::aShaped(111);
    EXPECT_GT(p.multiplier(55, 111), p.multiplier(0, 111));
    EXPECT_GT(p.multiplier(55, 111), p.multiplier(110, 111));
    EXPECT_NEAR(p.multiplier(55, 111), 2.0, 0.05);
}

TEST(PositionProfile, VShapePeaksEnds)
{
    auto p = PositionProfile::vShaped(111);
    EXPECT_LT(p.multiplier(55, 111), p.multiplier(0, 111));
    EXPECT_LT(p.multiplier(55, 111), p.multiplier(110, 111));
}

TEST(PositionProfile, VIsInversionOfA)
{
    auto a = PositionProfile::aShaped(101);
    auto v = PositionProfile::vShaped(101);
    // A + V is approximately flat (both are |2u-1| based).
    for (size_t i = 0; i < 101; ++i) {
        double sum = a.multiplier(i, 101) + v.multiplier(i, 101);
        EXPECT_NEAR(sum, 2.0, 0.05);
    }
}

TEST(PositionProfile, FromHistogramMatchesShape)
{
    Histogram h;
    h.add(0, 100);
    h.add(1, 50);
    h.add(2, 50);
    h.add(3, 50);
    auto p = PositionProfile::fromHistogram(h, 4);
    EXPECT_NEAR(p.multiplier(0, 4) / p.multiplier(1, 4), 2.0, 1e-9);
}

TEST(PositionProfile, FromHistogramEmptyIsUniform)
{
    Histogram h;
    auto p = PositionProfile::fromHistogram(h, 10);
    EXPECT_TRUE(p.isUniform());
}

TEST(PositionProfile, FromHistogramFloor)
{
    Histogram h;
    h.add(0, 100); // all other positions empty
    auto p = PositionProfile::fromHistogram(h, 10, 0.1);
    // Floored positions still carry mass.
    EXPECT_GT(p.multiplier(5, 10), 0.0);
}

TEST(PositionProfile, MultiplierInterpolatesOtherLengths)
{
    auto p = PositionProfile::aShaped(110);
    // Relative position is preserved: mid of a length-20 strand maps
    // near the profile's peak.
    EXPECT_NEAR(p.multiplier(10, 21), 2.0, 0.1);
    EXPECT_LT(p.multiplier(0, 21), 0.5);
}

TEST(PositionProfile, OutOfRangePositionClamps)
{
    auto p = PositionProfile::terminalSkew(100, 1.0, 5.0);
    // Positions at or beyond the length use the final multiplier.
    EXPECT_DOUBLE_EQ(p.multiplier(150, 100), p.multiplier(99, 100));
}

class PositionProfileLengths
    : public ::testing::TestWithParam<size_t>
{};

TEST_P(PositionProfileLengths, AllFactoriesNormalized)
{
    size_t len = GetParam();
    for (auto p : {PositionProfile::uniform(len),
                   PositionProfile::terminalSkew(len, 2.0, 5.0),
                   PositionProfile::aShaped(len),
                   PositionProfile::vShaped(len)}) {
        double sum = 0.0;
        for (size_t i = 0; i < len; ++i) {
            double m = p.multiplier(i, len);
            EXPECT_GE(m, 0.0);
            sum += m;
        }
        EXPECT_NEAR(sum / static_cast<double>(len), 1.0, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PositionProfileLengths,
                         ::testing::Values(1, 2, 3, 10, 110, 331));

} // namespace
} // namespace dnasim
