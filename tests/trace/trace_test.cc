/**
 * @file
 * Unit tests for IoRecord and Trace.
 */

#include <gtest/gtest.h>

#include "trace/trace.h"
#include "util/logging.h"

namespace logseek::trace
{
namespace
{

TEST(IoRecord, MakeReadAndWriteHelpers)
{
    const IoRecord read = makeRead(100, 8, 42);
    EXPECT_TRUE(read.isRead());
    EXPECT_FALSE(read.isWrite());
    EXPECT_EQ(read.extent, (SectorExtent{100, 8}));
    EXPECT_EQ(read.timestampUs, 42u);

    const IoRecord write = makeWrite(200, 16);
    EXPECT_TRUE(write.isWrite());
    EXPECT_EQ(write.timestampUs, 0u);
}

TEST(IoRecord, ToStringNames)
{
    EXPECT_STREQ(toString(IoType::Read), "Read");
    EXPECT_STREQ(toString(IoType::Write), "Write");
}

TEST(Trace, StartsEmpty)
{
    const Trace trace("test");
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.addressSpaceEnd(), 0u);
    EXPECT_EQ(trace.durationUs(), 0u);
    EXPECT_EQ(trace.name(), "test");
}

TEST(Trace, AppendPreservesOrder)
{
    Trace trace;
    trace.appendRead(10, 2, 1);
    trace.appendWrite(20, 4, 2);
    trace.appendRead(5, 1, 3);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_TRUE(trace[0].isRead());
    EXPECT_TRUE(trace[1].isWrite());
    EXPECT_EQ(trace[2].extent.start, 5u);
}

TEST(Trace, AddressSpaceEndTracksHighestSector)
{
    Trace trace;
    trace.appendWrite(100, 10);
    EXPECT_EQ(trace.addressSpaceEnd(), 110u);
    trace.appendRead(5000, 8);
    EXPECT_EQ(trace.addressSpaceEnd(), 5008u);
    trace.appendWrite(10, 1);
    EXPECT_EQ(trace.addressSpaceEnd(), 5008u);
}

TEST(Trace, DurationIsLastTimestamp)
{
    Trace trace;
    trace.appendRead(0, 1, 100);
    trace.appendRead(0, 1, 2500);
    EXPECT_EQ(trace.durationUs(), 2500u);
}

TEST(Trace, EmptyExtentPanics)
{
    Trace trace;
    EXPECT_THROW(trace.append(IoRecord{0, IoType::Read, {5, 0}}),
                 PanicError);
}

TEST(Trace, RangeForIteration)
{
    Trace trace;
    trace.appendRead(1, 1);
    trace.appendWrite(2, 1);
    std::size_t count = 0;
    for (const auto &record : trace) {
        (void)record;
        ++count;
    }
    EXPECT_EQ(count, 2u);
}

TEST(Trace, SetNameReplaces)
{
    Trace trace("old");
    trace.setName("new");
    EXPECT_EQ(trace.name(), "new");
}

} // namespace
} // namespace logseek::trace
