/**
 * @file
 * Unit tests for PbaRangeCache (LRU and FIFO range caching).
 */

#include <gtest/gtest.h>

#include "disk/pba_cache.h"

namespace logseek::disk
{
namespace
{

constexpr std::uint64_t kBig = 1024 * kMiB;

TEST(PbaRangeCache, MissesWhenEmpty)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    EXPECT_FALSE(cache.contains({0, 8}));
    EXPECT_EQ(cache.usedBytes(), 0u);
}

TEST(PbaRangeCache, HitAfterInsert)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    cache.insert({100, 50});
    EXPECT_TRUE(cache.contains({100, 50}));
    EXPECT_TRUE(cache.contains({120, 10}));
    EXPECT_FALSE(cache.contains({90, 20}));
    EXPECT_FALSE(cache.contains({140, 20}));
}

TEST(PbaRangeCache, EmptyExtentIsTriviallyCovered)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    EXPECT_TRUE(cache.contains({123, 0}));
}

TEST(PbaRangeCache, CoverageAcrossMultipleEntries)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    cache.insert({0, 10});
    cache.insert({10, 10});
    cache.insert({20, 10});
    EXPECT_TRUE(cache.contains({5, 20})); // spans three entries
}

TEST(PbaRangeCache, GapBreaksCoverage)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    cache.insert({0, 10});
    cache.insert({20, 10});
    EXPECT_FALSE(cache.contains({5, 20})); // hole at [10,20)
}

TEST(PbaRangeCache, InsertOnlyAddsUncoveredPortions)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    cache.insert({0, 10});
    const std::uint64_t before = cache.usedBytes();
    cache.insert({0, 10}); // fully duplicate
    EXPECT_EQ(cache.usedBytes(), before);
    cache.insert({5, 10}); // half duplicate
    EXPECT_EQ(cache.usedBytes(), before + 5 * kSectorBytes);
    EXPECT_TRUE(cache.contains({0, 15}));
}

TEST(PbaRangeCache, OverlappingInsertBridgesGap)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    cache.insert({0, 4});
    cache.insert({8, 4});
    cache.insert({0, 12}); // fills the [4,8) hole
    EXPECT_TRUE(cache.contains({0, 12}));
    EXPECT_EQ(cache.usedBytes(), 12 * kSectorBytes);
}

TEST(PbaRangeCache, ZeroCapacityStoresNothing)
{
    PbaRangeCache cache(0, EvictionPolicy::Lru);
    cache.insert({0, 100});
    EXPECT_FALSE(cache.contains({0, 1}));
    EXPECT_EQ(cache.usedBytes(), 0u);
    EXPECT_EQ(cache.entryCount(), 0u);
}

TEST(PbaRangeCache, EvictsWhenOverBudget)
{
    // Budget for exactly two 4-sector entries.
    PbaRangeCache cache(8 * kSectorBytes, EvictionPolicy::Lru);
    cache.insert({0, 4});
    cache.insert({100, 4});
    EXPECT_EQ(cache.entryCount(), 2u);
    cache.insert({200, 4});
    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_EQ(cache.evictionCount(), 1u);
    EXPECT_FALSE(cache.contains({0, 4})); // oldest gone
    EXPECT_TRUE(cache.contains({100, 4}));
    EXPECT_TRUE(cache.contains({200, 4}));
}

TEST(PbaRangeCache, LruHitRefreshesRecency)
{
    PbaRangeCache cache(8 * kSectorBytes, EvictionPolicy::Lru);
    cache.insert({0, 4});
    cache.insert({100, 4});
    EXPECT_TRUE(cache.contains({0, 4})); // refresh entry 0
    cache.insert({200, 4});              // evicts 100, not 0
    EXPECT_TRUE(cache.contains({0, 4}));
    EXPECT_FALSE(cache.contains({100, 4}));
}

TEST(PbaRangeCache, FifoIgnoresHitsForEviction)
{
    PbaRangeCache cache(8 * kSectorBytes, EvictionPolicy::Fifo);
    cache.insert({0, 4});
    cache.insert({100, 4});
    EXPECT_TRUE(cache.contains({0, 4})); // FIFO: no refresh
    cache.insert({200, 4});              // evicts 0 (oldest insert)
    EXPECT_FALSE(cache.contains({0, 4}));
    EXPECT_TRUE(cache.contains({100, 4}));
}

TEST(PbaRangeCache, InsertLargerThanBudgetLeavesSubset)
{
    PbaRangeCache cache(4 * kSectorBytes, EvictionPolicy::Lru);
    cache.insert({0, 100});
    EXPECT_LE(cache.usedBytes(), 4 * kSectorBytes);
}

TEST(PbaRangeCache, PartialHitDoesNotCount)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    cache.insert({0, 8});
    EXPECT_FALSE(cache.contains({0, 9}));
    EXPECT_FALSE(cache.contains({4, 8}));
}

TEST(PbaRangeCache, ManyEntriesStressAccounting)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    std::uint64_t expected = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        cache.insert({i * 100, 8});
        expected += 8 * kSectorBytes;
    }
    EXPECT_EQ(cache.usedBytes(), expected);
    EXPECT_EQ(cache.entryCount(), 1000u);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_TRUE(cache.contains({i * 100, 8})) << i;
}

TEST(PbaRangeCache, AdjacentInsertsCoverJointRange)
{
    PbaRangeCache cache(kBig, EvictionPolicy::Lru);
    cache.insert({0, 8});
    cache.insert({8, 8});
    EXPECT_TRUE(cache.contains({0, 16}));
}

TEST(PbaRangeCache, EvictionCreatesHoleInJointCoverage)
{
    PbaRangeCache cache(16 * kSectorBytes, EvictionPolicy::Lru);
    cache.insert({0, 8});
    cache.insert({8, 8});
    EXPECT_TRUE(cache.contains({0, 16}));
    cache.insert({100, 8}); // evicts the LRU half
    EXPECT_FALSE(cache.contains({0, 16}));
}

} // namespace
} // namespace logseek::disk
