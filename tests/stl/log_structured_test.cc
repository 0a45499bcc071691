/**
 * @file
 * Unit tests for the log-structured translation layer.
 */

#include <gtest/gtest.h>

#include "stl/log_structured.h"
#include "util/logging.h"

namespace logseek::stl
{
namespace
{

TEST(LogStructuredLayer, WritesGoToTheFrontierInOrder)
{
    LogStructuredLayer layer(1000);
    EXPECT_EQ(layer.writeFrontier(), 1000u);

    const auto first = layer.placeWrite({10, 4});
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].pba, 1000u);
    EXPECT_EQ(layer.writeFrontier(), 1004u);

    const auto second = layer.placeWrite({500, 8});
    EXPECT_EQ(second[0].pba, 1004u);
    EXPECT_EQ(layer.writeFrontier(), 1012u);
}

TEST(LogStructuredLayer, UnwrittenDataReadsAtIdentity)
{
    LogStructuredLayer layer(1000);
    const auto segments = layer.translateRead({100, 10});
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_FALSE(segments[0].mapped);
    EXPECT_EQ(segments[0].pba, 100u);
}

TEST(LogStructuredLayer, ReadAfterWriteFindsLogLocation)
{
    LogStructuredLayer layer(1000);
    layer.placeWrite({10, 4});
    const auto segments = layer.translateRead({10, 4});
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_TRUE(segments[0].mapped);
    EXPECT_EQ(segments[0].pba, 1000u);
}

TEST(LogStructuredLayer, OverwriteInvalidatesOldLocation)
{
    LogStructuredLayer layer(1000);
    layer.placeWrite({10, 4});
    layer.placeWrite({10, 4});
    const auto segments = layer.translateRead({10, 4});
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].pba, 1004u); // the newer copy
}

TEST(LogStructuredLayer, PartialUpdateFragmentsRange)
{
    LogStructuredLayer layer(1000);
    layer.placeWrite({0, 10});  // pba 1000..1009
    layer.placeWrite({4, 2});   // pba 1010..1011
    const auto segments = layer.translateRead({0, 10});
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0].pba, 1000u);
    EXPECT_EQ(segments[1].pba, 1010u);
    EXPECT_EQ(segments[2].pba, 1006u);
}

TEST(LogStructuredLayer, BackToBackWritesArePhysicallyContiguous)
{
    LogStructuredLayer layer(5000);
    Pba expected = 5000;
    for (Lba lba = 900; lba > 0; lba -= 30) {
        const auto segments = layer.placeWrite({lba, 16});
        EXPECT_EQ(segments[0].pba, expected);
        expected += 16;
    }
}

TEST(LogStructuredLayer, SequentialWritesCoalesceInMap)
{
    LogStructuredLayer layer(10000);
    for (Lba lba = 0; lba < 100; lba += 10)
        layer.placeWrite({lba, 10});
    EXPECT_EQ(layer.staticFragmentCount(), 1u);
}

TEST(LogStructuredLayer, RandomWritesAccumulateFragments)
{
    LogStructuredLayer layer(10000);
    layer.placeWrite({0, 4});
    layer.placeWrite({100, 4});
    layer.placeWrite({50, 4});
    EXPECT_EQ(layer.staticFragmentCount(), 3u);
}

TEST(LogStructuredLayer, RelocateMovesRangeToFrontier)
{
    LogStructuredLayer layer(1000);
    layer.placeWrite({0, 4});
    layer.placeWrite({8, 4});
    const Pba frontier = layer.writeFrontier();
    // A defrag rewrite on the LS log is a plain placement.
    const auto placed = layer.placeWrite({0, 12});
    ASSERT_EQ(placed.size(), 1u);
    EXPECT_EQ(placed[0].pba, frontier);
    // The whole range is now one contiguous run.
    const auto segments = layer.translateRead({0, 12});
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].pba, frontier);
}

TEST(LogStructuredLayer, WriteAboveLogStartPanics)
{
    LogStructuredLayer layer(1000);
    EXPECT_THROW(layer.placeWrite({998, 4}), PanicError);
}

TEST(LogStructuredLayer, LogStartRecorded)
{
    const LogStructuredLayer layer(4242);
    EXPECT_EQ(layer.logStart(), 4242u);
    EXPECT_EQ(layer.name(), "log-structured");
}

TEST(LogStructuredLayer, EmptyExtentsPanic)
{
    LogStructuredLayer layer(1000);
    EXPECT_THROW(layer.translateRead({0, 0}), PanicError);
    EXPECT_THROW(layer.placeWrite({0, 0}), PanicError);
}

TEST(LogStructuredLayer, MapExposedReadOnly)
{
    LogStructuredLayer layer(1000);
    layer.placeWrite({3, 2});
    EXPECT_EQ(layer.extentMap().entryCount(), 1u);
    EXPECT_EQ(layer.extentMap().mappedSectors(), 2u);
}

} // namespace
} // namespace logseek::stl
