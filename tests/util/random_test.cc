/**
 * @file
 * Unit and property tests for the deterministic Rng and ZipfSampler.
 */

#include <gtest/gtest.h>

#include <vector>

#include "util/logging.h"
#include "util/random.h"

namespace logseek
{
namespace
{

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int differing = 0;
    for (int i = 0; i < 32; ++i) {
        if (a() != b())
            ++differing;
    }
    EXPECT_GT(differing, 28);
}

TEST(Rng, NextUintStaysBelowBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextUint(13), 13u);
}

TEST(Rng, NextUintBoundOneAlwaysZero)
{
    Rng rng(7);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(rng.nextUint(1), 0u);
}

TEST(Rng, NextUintZeroBoundPanics)
{
    Rng rng(7);
    EXPECT_THROW(rng.nextUint(0), PanicError);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double value = rng.nextDouble();
        EXPECT_GE(value, 0.0);
        EXPECT_LT(value, 1.0);
    }
}

TEST(Rng, NextDoubleIsRoughlyUniform)
{
    Rng rng(13);
    double sum = 0.0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(Rng, NextBoolExtremes)
{
    Rng rng(15);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, NextBoolFrequencyTracksP)
{
    Rng rng(17);
    int hits = 0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, SatisfiesUniformRandomBitGeneratorBounds)
{
    EXPECT_EQ(Rng::min(), 0u);
    EXPECT_EQ(Rng::max(), ~std::uint64_t{0});
}

TEST(ZipfSampler, SampleInRange)
{
    Rng rng(1);
    const ZipfSampler sampler(10, 1.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(sampler.sample(rng), 10u);
}

TEST(ZipfSampler, SkewZeroIsUniform)
{
    Rng rng(2);
    const ZipfSampler sampler(4, 0.0);
    std::vector<int> counts(4, 0);
    constexpr int kDraws = 40000;
    for (int i = 0; i < kDraws; ++i)
        ++counts[sampler.sample(rng)];
    for (const int count : counts)
        EXPECT_NEAR(count, kDraws / 4, kDraws / 40);
}

TEST(ZipfSampler, HighSkewPrefersRankZero)
{
    Rng rng(3);
    const ZipfSampler sampler(100, 1.5);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 10000; ++i)
        ++counts[sampler.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], 1000); // rank 0 gets a large share
}

TEST(ZipfSampler, SingleItemAlwaysRankZero)
{
    Rng rng(4);
    const ZipfSampler sampler(1, 1.0);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(ZipfSampler, ZeroItemsPanics)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), PanicError);
}

TEST(ZipfSampler, NegativeSkewPanics)
{
    EXPECT_THROW(ZipfSampler(4, -0.5), PanicError);
}

/** Monotonicity sweep: higher skew concentrates more mass on rank 0. */
class ZipfSkewSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfSkewSweep, RankZeroShareGrowsWithSkew)
{
    const double skew = GetParam();
    Rng rng(99);
    const ZipfSampler low(50, skew);
    const ZipfSampler high(50, skew + 0.5);
    int low_zero = 0;
    int high_zero = 0;
    for (int i = 0; i < 20000; ++i) {
        low_zero += low.sample(rng) == 0 ? 1 : 0;
        high_zero += high.sample(rng) == 0 ? 1 : 0;
    }
    EXPECT_GT(high_zero, low_zero);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 1.5));

} // namespace
} // namespace logseek
