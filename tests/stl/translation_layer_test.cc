/**
 * @file
 * Unit tests for the translation-layer helpers, focused on
 * mergePhysicallyContiguousInPlace — the function the replay engine
 * relies on to coalesce logically split but physically adjacent
 * segments before seek accounting.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "stl/translation_layer.h"

namespace logseek::stl
{
namespace
{

/** `segments` compacted in one SegmentBuffer, as the engine merges
 *  a read's fragments. */
std::vector<Segment>
mergeInPlace(const std::vector<Segment> &segments)
{
    SegmentBuffer buffer;
    for (const Segment &segment : segments)
        buffer.push(segment);
    mergePhysicallyContiguousInPlace(buffer);
    return std::move(buffer).take();
}

TEST(MergePhysicallyContiguousTest, EmptyInputStaysEmpty)
{
    EXPECT_TRUE(mergeInPlace({}).empty());
}

TEST(MergePhysicallyContiguousTest, SingleSegmentIsUntouched)
{
    const std::vector<Segment> one{{{10, 4}, 900, true}};
    const auto merged = mergeInPlace(one);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].logical, (SectorExtent{10, 4}));
    EXPECT_EQ(merged[0].pba, 900u);
    EXPECT_TRUE(merged[0].mapped);
}

TEST(MergePhysicallyContiguousTest, MergesMappedAdjacency)
{
    // Two mapped runs, physically and logically back to back:
    // the device reads them in one sequential pass.
    const std::vector<Segment> segments{
        {{0, 8}, 100, true},
        {{8, 8}, 108, true},
    };
    const auto merged = mergeInPlace(segments);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].logical, (SectorExtent{0, 16}));
    EXPECT_EQ(merged[0].pba, 100u);
    EXPECT_TRUE(merged[0].mapped);
}

TEST(MergePhysicallyContiguousTest, MergedFlagIsOrOfConstituents)
{
    // A mapped run next to an unmapped identity hole (and the other
    // way round): the merged segment counts as mapped either way.
    const std::vector<Segment> mapped_first{
        {{0, 4}, 100, true},
        {{4, 4}, 104, false},
    };
    auto merged = mergeInPlace(mapped_first);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_TRUE(merged[0].mapped);

    const std::vector<Segment> unmapped_first{
        {{0, 4}, 100, false},
        {{4, 4}, 104, true},
    };
    merged = mergeInPlace(unmapped_first);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_TRUE(merged[0].mapped);

    const std::vector<Segment> both_unmapped{
        {{0, 4}, 100, false},
        {{4, 4}, 104, false},
    };
    merged = mergeInPlace(both_unmapped);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_FALSE(merged[0].mapped);
}

TEST(MergePhysicallyContiguousTest, KeepsPhysicallyDisjointRuns)
{
    // Logically adjacent but physically scattered: a real seek
    // boundary, so no merge.
    const std::vector<Segment> segments{
        {{0, 4}, 100, true},
        {{4, 4}, 500, true},
    };
    const auto merged = mergeInPlace(segments);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged[0].pba, 100u);
    EXPECT_EQ(merged[1].pba, 500u);
}

TEST(MergePhysicallyContiguousTest, KeepsLogicallyDisjointRuns)
{
    // Physically adjacent but with a logical hole between them
    // (the read skips LBAs): kept separate.
    const std::vector<Segment> segments{
        {{0, 4}, 100, true},
        {{8, 4}, 104, true},
    };
    EXPECT_EQ(mergeInPlace(segments).size(), 2u);
}

TEST(MergePhysicallyContiguousTest, ChainsAcrossManySegments)
{
    // Three contiguous runs collapse to one; a fourth after a jump
    // starts a new run.
    const std::vector<Segment> segments{
        {{0, 2}, 50, true},
        {{2, 2}, 52, false},
        {{4, 2}, 54, true},
        {{6, 2}, 900, false},
    };
    const auto merged = mergeInPlace(segments);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged[0].logical, (SectorExtent{0, 6}));
    EXPECT_EQ(merged[0].pba, 50u);
    EXPECT_TRUE(merged[0].mapped);
    EXPECT_EQ(merged[1].logical, (SectorExtent{6, 2}));
    EXPECT_FALSE(merged[1].mapped);
}

} // namespace
} // namespace logseek::stl
