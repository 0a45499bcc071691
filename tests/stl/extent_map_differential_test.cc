/**
 * @file
 * Randomized differential test: the B+-tree ExtentMap against the
 * preserved std::map ReferenceExtentMap, over millions of mixed
 * mapRange/translate/fragmentCount operations.
 *
 * The reference is the seed implementation verbatim, so agreement
 * here pins the tree to the exact historical semantics: entry-for-
 * entry map state (coalescing), displaced-range reporting (order
 * and values), hole emission, and fragment counting. Workloads mix
 * sequential runs, random overwrites (some at pba == lba) and wide
 * rewrites so leaf splits, cross-leaf merges, range erases spanning
 * many leaves, remnants coalescing with the new entry and cursor
 * hits/misses are all exercised.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stl/extent_map.h"
#include "stl/testing/reference_extent_map.h"
#include "util/random.h"

namespace logseek::stl
{
namespace
{

struct FlatEntry
{
    Lba lba;
    Pba pba;
    SectorCount count;

    bool operator==(const FlatEntry &other) const = default;
};

template <typename Map>
std::vector<FlatEntry>
flatten(const Map &map)
{
    std::vector<FlatEntry> entries;
    entries.reserve(map.entryCount());
    map.forEachEntry([&](Lba lba, Pba pba, SectorCount count) {
        entries.push_back(FlatEntry{lba, pba, count});
    });
    return entries;
}

/** One seeded adversarial run of `ops` mixed operations. */
void
runDifferential(std::uint64_t seed, std::size_t ops, Lba space,
                SectorCount max_write)
{
    Rng rng(seed);
    ExtentMap tree;
    testing::ReferenceExtentMap reference;
    SegmentBuffer scratch;
    Pba frontier = space; // log-style placement above the space

    std::vector<SectorExtent> tree_displaced;
    std::vector<SectorExtent> ref_displaced;

    std::size_t checked_states = 0;
    Lba sequential = 0;

    for (std::size_t op = 0; op < ops; ++op) {
        const std::uint64_t kind = rng.nextUint(10);
        if (kind < 5) {
            // Random write (the defrag/overwrite pattern). About a
            // tenth place at pba == lba, the identity placement of
            // footprint fills: such a write lands on the physical
            // run of any identity entry it cuts, so the left
            // remnant, the new entry and the right remnant coalesce
            // back into one entry.
            const SectorCount count = 1 + rng.nextUint(max_write);
            const Lba lba = rng.nextUint(space - count);
            const bool identity = rng.nextUint(10) == 0;
            const Pba pba = identity ? lba : frontier;
            tree_displaced.clear();
            ref_displaced.clear();
            tree.mapRange(lba, pba, count, &tree_displaced);
            reference.mapRange(lba, pba, count, &ref_displaced);
            ASSERT_EQ(tree_displaced, ref_displaced)
                << "op " << op << " seed " << seed;
            if (!identity)
                frontier += count;
        } else if (kind < 7) {
            // Sequential append run: adjacent LBAs at adjacent
            // PBAs, the coalescing + cursor-friendly pattern.
            const SectorCount count = 1 + rng.nextUint(64);
            if (sequential + count >= space)
                sequential = rng.nextUint(space / 2);
            tree.mapRange(sequential, frontier, count);
            reference.mapRange(sequential, frontier, count);
            sequential += count;
            frontier += count;
        } else if (kind < 9) {
            // Random read.
            const SectorCount count = std::min<SectorCount>(
                1 + rng.nextUint(512), space - 1);
            const Lba lba = rng.nextUint(space - count);
            const SectorExtent extent{lba, count};
            tree.translateInto(extent, scratch);
            const auto expected = reference.translate(extent);
            ASSERT_EQ(scratch.segments(), expected)
                << "op " << op << " seed " << seed;
            ASSERT_EQ(tree.translate(extent), expected);
            ASSERT_EQ(tree.fragmentCount(extent),
                      reference.fragmentCount(extent));
        } else {
            // Wide rewrite spanning many entries (bulk displace).
            const SectorCount count = std::min<SectorCount>(
                256 + rng.nextUint(4096), space - 1);
            const Lba lba = rng.nextUint(space - count);
            tree_displaced.clear();
            ref_displaced.clear();
            tree.mapRange(lba, frontier, count, &tree_displaced);
            reference.mapRange(lba, frontier, count,
                               &ref_displaced);
            ASSERT_EQ(tree_displaced, ref_displaced)
                << "op " << op << " seed " << seed;
            frontier += count;
        }

        ASSERT_EQ(tree.entryCount(), reference.entryCount())
            << "op " << op << " seed " << seed;
        ASSERT_EQ(tree.mappedSectors(), reference.mappedSectors());

        // Entry-for-entry comparison is O(n); sample it.
        if (op % 8192 == 0 || op + 1 == ops) {
            ASSERT_EQ(flatten(tree), flatten(reference))
                << "op " << op << " seed " << seed;
            ++checked_states;
        }
    }
    EXPECT_GE(checked_states, 2u);
    EXPECT_FALSE(tree.empty());
}

TEST(ExtentMapDifferential, MillionMixedOpsMatchReference)
{
    // ~1.05M operations against the seed implementation. Space is
    // sized so the map grows past 64k entries, forcing a tree of
    // height >= 2 with splits, drains and cross-leaf merges.
    runDifferential(/*seed=*/42, /*ops=*/1'050'000,
                    /*space=*/Lba{1} << 22, /*max_write=*/24);
}

TEST(ExtentMapDifferential, DenseSmallSpaceHitsCrossLeafMerges)
{
    // A tight space maximizes overwrites, splits of existing
    // entries and coalescing across leaf boundaries.
    runDifferential(/*seed=*/7, /*ops=*/120'000,
                    /*space=*/Lba{1} << 12, /*max_write=*/48);
}

TEST(ExtentMapDifferential, ManySeedsSmallRuns)
{
    for (std::uint64_t seed = 100; seed < 116; ++seed)
        runDifferential(seed, /*ops=*/8'000,
                        /*space=*/Lba{1} << 14, /*max_write=*/32);
}

} // namespace
} // namespace logseek::stl
