/**
 * @file
 * Unit tests for ExtentMap: interval mapping, splitting on partial
 * overwrite, coalescing, and hole-aware translation.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "stl/extent_map.h"
#include "stl/translation_layer.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace logseek::stl
{
namespace
{

std::vector<Segment>
xlate(const ExtentMap &map, Lba lba, SectorCount count)
{
    return map.translate({lba, count});
}

TEST(ExtentMap, EmptyMapTranslatesToIdentityHole)
{
    const ExtentMap map;
    const auto segments = xlate(map, 100, 20);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_FALSE(segments[0].mapped);
    EXPECT_EQ(segments[0].logical, (SectorExtent{100, 20}));
    EXPECT_EQ(segments[0].pba, 100u); // identity placement
}

TEST(ExtentMap, EmptyExtentTranslatesToNothing)
{
    const ExtentMap map;
    EXPECT_TRUE(map.translate({50, 0}).empty());
}

TEST(ExtentMap, SimpleMappingRoundTrip)
{
    ExtentMap map;
    map.mapRange(100, 5000, 10);
    const auto segments = xlate(map, 100, 10);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_TRUE(segments[0].mapped);
    EXPECT_EQ(segments[0].pba, 5000u);
    EXPECT_EQ(segments[0].physical(), (SectorExtent{5000, 10}));
    EXPECT_EQ(map.entryCount(), 1u);
    EXPECT_EQ(map.mappedSectors(), 10u);
}

TEST(ExtentMap, PartialReadOffsetsPba)
{
    ExtentMap map;
    map.mapRange(100, 5000, 10);
    const auto segments = xlate(map, 104, 3);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].pba, 5004u);
    EXPECT_EQ(segments[0].logical, (SectorExtent{104, 3}));
}

TEST(ExtentMap, ReadSpanningMappedAndHole)
{
    ExtentMap map;
    map.mapRange(10, 1000, 5);
    const auto segments = xlate(map, 5, 15);
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_FALSE(segments[0].mapped);
    EXPECT_EQ(segments[0].logical, (SectorExtent{5, 5}));
    EXPECT_TRUE(segments[1].mapped);
    EXPECT_EQ(segments[1].logical, (SectorExtent{10, 5}));
    EXPECT_EQ(segments[1].pba, 1000u);
    EXPECT_FALSE(segments[2].mapped);
    EXPECT_EQ(segments[2].logical, (SectorExtent{15, 5}));
    EXPECT_EQ(segments[2].pba, 15u);
}

TEST(ExtentMap, FullOverwriteReplacesMapping)
{
    ExtentMap map;
    map.mapRange(10, 1000, 8);
    map.mapRange(10, 2000, 8);
    const auto segments = xlate(map, 10, 8);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].pba, 2000u);
    EXPECT_EQ(map.entryCount(), 1u);
    EXPECT_EQ(map.mappedSectors(), 8u);
}

TEST(ExtentMap, PartialOverwriteSplitsEntry)
{
    ExtentMap map;
    map.mapRange(0, 1000, 10);
    map.mapRange(4, 2000, 2); // middle overwrite
    const auto segments = xlate(map, 0, 10);
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0].pba, 1000u);
    EXPECT_EQ(segments[0].logical, (SectorExtent{0, 4}));
    EXPECT_EQ(segments[1].pba, 2000u);
    EXPECT_EQ(segments[1].logical, (SectorExtent{4, 2}));
    EXPECT_EQ(segments[2].pba, 1006u); // tail keeps its offset pba
    EXPECT_EQ(segments[2].logical, (SectorExtent{6, 4}));
    EXPECT_EQ(map.entryCount(), 3u);
    EXPECT_EQ(map.mappedSectors(), 10u);
}

TEST(ExtentMap, OverwriteHeadOfEntry)
{
    ExtentMap map;
    map.mapRange(0, 1000, 10);
    map.mapRange(0, 2000, 4);
    const auto segments = xlate(map, 0, 10);
    ASSERT_EQ(segments.size(), 2u);
    EXPECT_EQ(segments[0].pba, 2000u);
    EXPECT_EQ(segments[1].pba, 1004u);
}

TEST(ExtentMap, OverwriteTailOfEntry)
{
    ExtentMap map;
    map.mapRange(0, 1000, 10);
    map.mapRange(6, 2000, 4);
    const auto segments = xlate(map, 0, 10);
    ASSERT_EQ(segments.size(), 2u);
    EXPECT_EQ(segments[0].pba, 1000u);
    EXPECT_EQ(segments[0].logical.count, 6u);
    EXPECT_EQ(segments[1].pba, 2000u);
}

TEST(ExtentMap, OverwriteSpanningMultipleEntries)
{
    ExtentMap map;
    map.mapRange(0, 1000, 4);
    map.mapRange(4, 2000, 4);
    map.mapRange(8, 3000, 4);
    map.mapRange(2, 5000, 8); // covers tail of 1st through head of 3rd
    const auto segments = xlate(map, 0, 12);
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0].pba, 1000u);
    EXPECT_EQ(segments[0].logical.count, 2u);
    EXPECT_EQ(segments[1].pba, 5000u);
    EXPECT_EQ(segments[1].logical.count, 8u);
    EXPECT_EQ(segments[2].pba, 3002u);
    EXPECT_EQ(segments[2].logical.count, 2u);
    EXPECT_EQ(map.mappedSectors(), 12u);
}

TEST(ExtentMap, CoalescesLogicallyAndPhysicallyAdjacent)
{
    ExtentMap map;
    map.mapRange(0, 1000, 4);
    map.mapRange(4, 1004, 4); // continues both spaces
    EXPECT_EQ(map.entryCount(), 1u);
    const auto segments = xlate(map, 0, 8);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].pba, 1000u);
}

TEST(ExtentMap, DoesNotCoalescePhysicallyDisjoint)
{
    ExtentMap map;
    map.mapRange(0, 1000, 4);
    map.mapRange(4, 9000, 4); // logically adjacent, physically not
    EXPECT_EQ(map.entryCount(), 2u);
}

TEST(ExtentMap, DoesNotCoalesceLogicallyDisjoint)
{
    ExtentMap map;
    map.mapRange(0, 1000, 4);
    map.mapRange(8, 1004, 4); // physically adjacent, logically not
    EXPECT_EQ(map.entryCount(), 2u);
}

TEST(ExtentMap, CoalescesWithSuccessor)
{
    ExtentMap map;
    map.mapRange(4, 1004, 4);
    map.mapRange(0, 1000, 4); // inserted before, continues into it
    EXPECT_EQ(map.entryCount(), 1u);
}

TEST(ExtentMap, MiddleInsertMergesBothNeighbors)
{
    ExtentMap map;
    map.mapRange(0, 1000, 4);
    map.mapRange(8, 1008, 4);
    map.mapRange(4, 1004, 4); // bridges them
    EXPECT_EQ(map.entryCount(), 1u);
    EXPECT_EQ(map.mappedSectors(), 12u);
}

TEST(ExtentMap, FragmentCountCountsRunsAndHoles)
{
    ExtentMap map;
    map.mapRange(10, 1000, 2);
    map.mapRange(14, 2000, 2);
    // [8,10) hole, [10,12) run, [12,14) hole, [14,16) run, [16,18) hole
    EXPECT_EQ(map.fragmentCount({8, 10}), 5u);
    EXPECT_EQ(map.fragmentCount({10, 2}), 1u);
}

TEST(ExtentMap, ZeroCountMapPanics)
{
    ExtentMap map;
    EXPECT_THROW(map.mapRange(0, 0, 0), PanicError);
}

TEST(ExtentMap, ForEachEntryVisitsInLbaOrder)
{
    ExtentMap map;
    map.mapRange(100, 5000, 4);
    map.mapRange(0, 6000, 4);
    map.mapRange(50, 7000, 4);
    std::vector<Lba> lbas;
    map.forEachEntry([&](Lba lba, Pba, SectorCount) {
        lbas.push_back(lba);
    });
    ASSERT_EQ(lbas.size(), 3u);
    EXPECT_EQ(lbas[0], 0u);
    EXPECT_EQ(lbas[1], 50u);
    EXPECT_EQ(lbas[2], 100u);
}

TEST(ExtentMap, RewriteRestoresContiguity)
{
    // The defragmentation primitive: scatter a range, then remap it
    // contiguously; translation collapses back to one segment.
    ExtentMap map;
    map.mapRange(0, 1000, 2);
    map.mapRange(2, 2000, 2);
    map.mapRange(4, 3000, 2);
    EXPECT_EQ(xlate(map, 0, 6).size(), 3u);
    map.mapRange(0, 9000, 6);
    const auto segments = xlate(map, 0, 6);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].pba, 9000u);
    EXPECT_EQ(map.entryCount(), 1u);
}

TEST(ExtentMap, MapsAndTranslatesAtLbaZero)
{
    // No entry lies below LBA 0, the edge of the leaf's lower-bound
    // search. 100 two-sector entries, none physically adjacent to
    // the next, fill two leaves past the search's linear range.
    ExtentMap map;
    for (Lba lba = 0; lba < 400; lba += 4)
        map.mapRange(lba, 10000 + 2 * lba, 2);
    ASSERT_EQ(map.entryCount(), 100u);

    map.mapRange(0, 500, 3);
    auto segments = xlate(map, 0, 6);
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0].logical, (SectorExtent{0, 3}));
    EXPECT_EQ(segments[0].pba, 500u);
    EXPECT_FALSE(segments[1].mapped);
    EXPECT_EQ(segments[1].logical, (SectorExtent{3, 1}));
    EXPECT_EQ(segments[2].logical, (SectorExtent{4, 2}));
    EXPECT_EQ(segments[2].pba, 10008u);
    EXPECT_EQ(map.entryCount(), 100u);

    map.mapRange(0, 700, 1);
    segments = xlate(map, 0, 3);
    ASSERT_EQ(segments.size(), 2u);
    EXPECT_EQ(segments[0].pba, 700u);
    EXPECT_EQ(segments[1].logical, (SectorExtent{1, 2}));
    EXPECT_EQ(segments[1].pba, 501u);
    EXPECT_EQ(map.entryCount(), 101u);

    map.mapRange(0, 900, 400);
    segments = xlate(map, 0, 400);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].pba, 900u);
    EXPECT_EQ(map.entryCount(), 1u);
    EXPECT_EQ(map.mappedSectors(), 400u);
}

/** Splits leaves with 512 gapped entries, then reads them back in
 *  order, so most reads resolve on the cursor. */
void
splitAndReread(ExtentMap &map)
{
    for (Lba lba = 0; lba < 4096; lba += 8)
        map.mapRange(lba, 100000 + lba, 4);
    for (Lba lba = 0; lba < 4096; lba += 8)
        (void)xlate(map, lba, 4);
}

/** The extent-map counters' (cursor hits, node splits) values. */
std::pair<std::uint64_t, std::uint64_t>
publishedMapCounts()
{
    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    const auto value = [&](const char *name) -> std::uint64_t {
        const telemetry::CounterSnapshot *c = snap.findCounter(name);
        return c != nullptr ? c->value : 0;
    };
    return {value("extent_map_cursor_hits_total"),
            value("extent_map_node_splits_total")};
}

TEST(ExtentMap, MovedMapsPublishTheirCountsOnce)
{
    auto &registry = telemetry::Registry::global();
    registry.resetValues();
    telemetry::setEnabled(true);
    {
        ExtentMap alone;
        splitAndReread(alone);
    }
    const auto once = publishedMapCounts();
    EXPECT_GT(once.first, 0u);
    EXPECT_GT(once.second, 0u);

    // Move-construct, then move-assign over a map with counts of
    // its own: the swap hands those to the moved-from map, and
    // every count is published once, whichever map ends up
    // holding it.
    registry.resetValues();
    {
        ExtentMap source;
        splitAndReread(source);
        ExtentMap moved(std::move(source));
        ExtentMap target;
        splitAndReread(target);
        target = std::move(moved);
    }
    const auto twice = publishedMapCounts();
    telemetry::setEnabled(false);
    EXPECT_EQ(twice.first, 2 * once.first);
    EXPECT_EQ(twice.second, 2 * once.second);
}

TEST(MergePhysicallyContiguous, MergesAdjacentRuns)
{
    SegmentBuffer segments;
    segments.push({{0, 4}, 100, true});
    segments.push({{4, 4}, 104, false}); // physically continues
    segments.push({{8, 4}, 500, true});  // jump
    mergePhysicallyContiguousInPlace(segments);
    ASSERT_EQ(segments.size(), 2u);
    EXPECT_EQ(segments[0].logical, (SectorExtent{0, 8}));
    EXPECT_EQ(segments[0].pba, 100u);
    EXPECT_TRUE(segments[0].mapped);
    EXPECT_EQ(segments[1].pba, 500u);
}

TEST(MergePhysicallyContiguous, LeavesDisjointAlone)
{
    SegmentBuffer segments;
    segments.push({{0, 4}, 100, true});
    segments.push({{4, 4}, 300, true});
    mergePhysicallyContiguousInPlace(segments);
    EXPECT_EQ(segments.size(), 2u);
}

TEST(MergePhysicallyContiguous, HandlesEmptyAndSingle)
{
    SegmentBuffer segments;
    mergePhysicallyContiguousInPlace(segments);
    EXPECT_TRUE(segments.empty());
    segments.push({{0, 4}, 9, true});
    mergePhysicallyContiguousInPlace(segments);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].pba, 9u);
}

} // namespace
} // namespace logseek::stl
