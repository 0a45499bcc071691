/**
 * @file
 * Unit tests for EmpiricalCdf.
 */

#include <gtest/gtest.h>

#include "util/histogram.h"
#include "util/logging.h"

namespace logseek
{
namespace
{

TEST(EmpiricalCdf, EmptyCdfReturnsZeroFraction)
{
    const EmpiricalCdf cdf;
    EXPECT_EQ(cdf.count(), 0u);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(0.0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.mean(), 0.0);
}

TEST(EmpiricalCdf, FractionAtOrBelowIsInclusive)
{
    EmpiricalCdf cdf;
    cdf.add(1.0);
    cdf.add(2.0);
    cdf.add(3.0);
    cdf.add(4.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(2.0), 0.5);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(3.5), 0.75);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(10.0), 1.0);
}

TEST(EmpiricalCdf, HandlesDuplicates)
{
    EmpiricalCdf cdf;
    for (int i = 0; i < 5; ++i)
        cdf.add(7.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(6.9), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(7.0), 1.0);
}

TEST(EmpiricalCdf, MinMaxMean)
{
    EmpiricalCdf cdf;
    cdf.add(3.0);
    cdf.add(-1.0);
    cdf.add(4.0);
    EXPECT_DOUBLE_EQ(cdf.min(), -1.0);
    EXPECT_DOUBLE_EQ(cdf.max(), 4.0);
    EXPECT_DOUBLE_EQ(cdf.mean(), 2.0);
}

TEST(EmpiricalCdf, MinMaxOnEmptyPanics)
{
    const EmpiricalCdf cdf;
    EXPECT_THROW(cdf.min(), PanicError);
    EXPECT_THROW(cdf.max(), PanicError);
    EXPECT_THROW(cdf.percentile(0.5), PanicError);
}

TEST(EmpiricalCdf, PercentileNearestRank)
{
    EmpiricalCdf cdf;
    for (int i = 1; i <= 100; ++i)
        cdf.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(cdf.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.percentile(1.0), 100.0);
    EXPECT_NEAR(cdf.percentile(0.5), 50.0, 1.0);
}

TEST(EmpiricalCdf, PercentileOutOfRangePanics)
{
    EmpiricalCdf cdf;
    cdf.add(1.0);
    EXPECT_THROW(cdf.percentile(-0.1), PanicError);
    EXPECT_THROW(cdf.percentile(1.1), PanicError);
}

TEST(EmpiricalCdf, CurveIsMonotonic)
{
    EmpiricalCdf cdf;
    for (int i = 0; i < 50; ++i)
        cdf.add(static_cast<double>(i * i));
    const auto points = cdf.curve(-10.0, 3000.0, 30);
    ASSERT_EQ(points.size(), 30u);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GE(points[i].second, points[i - 1].second);
        EXPECT_GT(points[i].first, points[i - 1].first);
    }
    EXPECT_DOUBLE_EQ(points.front().second, 0.0);
    EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(EmpiricalCdf, CurveValidation)
{
    EmpiricalCdf cdf;
    cdf.add(1.0);
    EXPECT_THROW(cdf.curve(0.0, 1.0, 1), PanicError);
    EXPECT_THROW(cdf.curve(2.0, 1.0, 5), PanicError);
}

TEST(EmpiricalCdf, InterleavedAddAndQuery)
{
    EmpiricalCdf cdf;
    cdf.add(1.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(1.0), 1.0);
    cdf.add(3.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(1.0), 0.5);
    cdf.add(0.0);
    EXPECT_NEAR(cdf.fractionAtOrBelow(1.0), 2.0 / 3.0, 1e-12);
}

} // namespace
} // namespace logseek
