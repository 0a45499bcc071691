/**
 * @file
 * Unit tests for the workload phase primitives.
 */

#include <gtest/gtest.h>

#include "util/logging.h"

#include <algorithm>
#include <set>

#include "workloads/phases.h"

namespace logseek::workloads
{
namespace
{

TEST(SequentialWrite, CoversRegionInOrder)
{
    TraceBuilder builder("t");
    sequentialWrite(builder, {100, 40}, 16);
    const trace::Trace trace = builder.take();
    ASSERT_EQ(trace.size(), 3u); // 16 + 16 + 8
    EXPECT_EQ(trace[0].extent, (SectorExtent{100, 16}));
    EXPECT_EQ(trace[1].extent, (SectorExtent{116, 16}));
    EXPECT_EQ(trace[2].extent, (SectorExtent{132, 8}));
    for (const auto &record : trace)
        EXPECT_TRUE(record.isWrite());
}

TEST(SequentialRead, CoversRegionInOrder)
{
    TraceBuilder builder("t");
    sequentialRead(builder, {0, 32}, 16);
    const trace::Trace trace = builder.take();
    ASSERT_EQ(trace.size(), 2u);
    for (const auto &record : trace)
        EXPECT_TRUE(record.isRead());
}

TEST(RandomWrite, StaysInRegionAndAligned)
{
    TraceBuilder builder("t");
    Rng rng(1);
    randomWrite(builder, rng, {1000, 1600}, 200, 16);
    const trace::Trace trace = builder.take();
    ASSERT_EQ(trace.size(), 200u);
    for (const auto &record : trace) {
        EXPECT_GE(record.extent.start, 1000u);
        EXPECT_LE(record.extent.end(), 2600u);
        EXPECT_EQ((record.extent.start - 1000) % 16, 0u);
        EXPECT_EQ(record.extent.count, 16u);
    }
}

TEST(MisorderedWrite, DescendingReversesIoOrder)
{
    TraceBuilder builder("t");
    misorderedWrite(builder, {0, 64}, 16, MisorderPattern::Descending);
    const trace::Trace trace = builder.take();
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0].extent.start, 48u);
    EXPECT_EQ(trace[1].extent.start, 32u);
    EXPECT_EQ(trace[2].extent.start, 16u);
    EXPECT_EQ(trace[3].extent.start, 0u);
}

TEST(MisorderedWrite, ChunkedDescendingKeepsChunksAscending)
{
    TraceBuilder builder("t");
    misorderedWrite(builder, {0, 128}, 16,
                    MisorderPattern::ChunkedDescending);
    const trace::Trace trace = builder.take();
    ASSERT_EQ(trace.size(), 8u);
    // Second chunk (ios 4..7) first, ascending inside.
    EXPECT_EQ(trace[0].extent.start, 64u);
    EXPECT_EQ(trace[3].extent.start, 112u);
    EXPECT_EQ(trace[4].extent.start, 0u);
    EXPECT_EQ(trace[7].extent.start, 48u);
}

TEST(MisorderedWrite, InterleavedPairAlternatesHalves)
{
    TraceBuilder builder("t");
    misorderedWrite(builder, {0, 64}, 16,
                    MisorderPattern::InterleavedPair);
    const trace::Trace trace = builder.take();
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[0].extent.start, 0u);
    EXPECT_EQ(trace[1].extent.start, 32u);
    EXPECT_EQ(trace[2].extent.start, 16u);
    EXPECT_EQ(trace[3].extent.start, 48u);
}

TEST(MisorderedWrite, CoversWholeRunExactlyOnce)
{
    for (const auto pattern :
         {MisorderPattern::Descending,
          MisorderPattern::ChunkedDescending,
          MisorderPattern::InterleavedPair}) {
        TraceBuilder builder("t");
        misorderedWrite(builder, {0, 112}, 16, pattern); // 7 ios
        const trace::Trace trace = builder.take();
        std::set<Lba> starts;
        for (const auto &record : trace)
            starts.insert(record.extent.start);
        EXPECT_EQ(starts.size(), 7u);
        EXPECT_TRUE(starts.contains(0));
        EXPECT_TRUE(starts.contains(96));
    }
}

TEST(MisorderedWrite, NonWholeRunPanics)
{
    TraceBuilder builder("t");
    EXPECT_THROW(
        misorderedWrite(builder, {0, 60}, 16,
                        MisorderPattern::Descending),
        PanicError);
}

TEST(ShuffledSequentialWrite, CoversRegionExactly)
{
    TraceBuilder builder("t");
    Rng rng(3);
    shuffledSequentialWrite(builder, rng, {0, 256}, 16, 4);
    const trace::Trace trace = builder.take();
    ASSERT_EQ(trace.size(), 16u);
    std::set<Lba> starts;
    std::uint64_t total = 0;
    for (const auto &record : trace) {
        starts.insert(record.extent.start);
        total += record.extent.count;
    }
    EXPECT_EQ(starts.size(), 16u);
    EXPECT_EQ(total, 256u);
}

TEST(ShuffledSequentialWrite, ZeroProbabilityIsSequential)
{
    TraceBuilder builder("t");
    Rng rng(4);
    shuffledSequentialWrite(builder, rng, {0, 128}, 16, 4, 0.0);
    const trace::Trace trace = builder.take();
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].extent.start,
                  trace[i - 1].extent.end());
}

TEST(ShuffledSequentialWrite, DisorderStaysWithinWindows)
{
    TraceBuilder builder("t");
    Rng rng(5);
    constexpr std::uint32_t kWindow = 4;
    shuffledSequentialWrite(builder, rng, {0, 512}, 16, kWindow);
    const trace::Trace trace = builder.take();
    // Io i must come from window i / kWindow.
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::uint64_t window_index = i / kWindow;
        const std::uint64_t io_index = trace[i].extent.start / 16;
        EXPECT_EQ(io_index / kWindow, window_index) << "io " << i;
    }
}

TEST(InterleavedStreamWrite, RoundRobinsAcrossStreams)
{
    TraceBuilder builder("t");
    interleavedStreamWrite(builder, {0, 96}, 3, 8);
    const trace::Trace trace = builder.take();
    ASSERT_EQ(trace.size(), 12u);
    // First round: one io from each stream base.
    EXPECT_EQ(trace[0].extent.start, 0u);
    EXPECT_EQ(trace[1].extent.start, 32u);
    EXPECT_EQ(trace[2].extent.start, 64u);
    // Second round continues each stream.
    EXPECT_EQ(trace[3].extent.start, 8u);
}

TEST(InterleavedStreamWrite, SingleStreamIsSequential)
{
    TraceBuilder builder("t");
    interleavedStreamWrite(builder, {0, 64}, 1, 16);
    const trace::Trace trace = builder.take();
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].extent.start, trace[i - 1].extent.end());
}

TEST(HotSpotReader, ReadsAreChunkAligned)
{
    Rng rng(6);
    HotSpotReader reader({1000, 640}, 64, 1.0, rng);
    EXPECT_EQ(reader.chunkCount(), 10u);
    TraceBuilder builder("t");
    reader.emit(builder, rng, 100);
    const trace::Trace trace = builder.take();
    ASSERT_EQ(trace.size(), 100u);
    for (const auto &record : trace) {
        EXPECT_EQ((record.extent.start - 1000) % 64, 0u);
        EXPECT_EQ(record.extent.count, 64u);
        EXPECT_LE(record.extent.end(), 1640u);
    }
}

TEST(HotSpotReader, PopularityIsSkewedAndStable)
{
    Rng rng(7);
    HotSpotReader reader({0, 6400}, 64, 1.3, rng);
    TraceBuilder builder("t");
    reader.emit(builder, rng, 5000);
    const trace::Trace trace = builder.take();
    std::map<Lba, int> counts;
    for (const auto &record : trace)
        ++counts[record.extent.start];
    // The most popular chunk collects far more than the uniform
    // share (5000 / 100 chunks = 50).
    int best = 0;
    for (const auto &[lba, count] : counts)
        best = std::max(best, count);
    EXPECT_GT(best, 400);
}

TEST(HotSpotReader, ChunkExtentBoundsChecked)
{
    Rng rng(8);
    HotSpotReader reader({0, 128}, 64, 1.0, rng);
    EXPECT_EQ(reader.chunkExtent(1), (SectorExtent{64, 64}));
    EXPECT_THROW(reader.chunkExtent(2), PanicError);
}

TEST(Phases, ZeroIoSizePanics)
{
    TraceBuilder builder("t");
    Rng rng(9);
    EXPECT_THROW(sequentialWrite(builder, {0, 16}, 0), PanicError);
    EXPECT_THROW(randomWrite(builder, rng, {0, 16}, 1, 0),
                 PanicError);
    EXPECT_THROW(shuffledSequentialWrite(builder, rng, {0, 16}, 0, 4),
                 PanicError);
}

} // namespace
} // namespace logseek::workloads
