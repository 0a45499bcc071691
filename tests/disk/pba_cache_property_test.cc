/**
 * @file
 * Property-based tests for PbaRangeCache: random insert/contains
 * sequences validated against a brute-force per-sector reference
 * (coverage correctness) plus budget invariants, and a differential
 * test that pins the exact hit, admission and eviction behaviour
 * against a brute-force model of the cache, in the order the replay
 * engine drives it (look up, admit on a miss) and interleaved.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "disk/pba_cache.h"
#include "util/random.h"

namespace logseek::disk
{
namespace
{

struct FuzzParams
{
    std::uint64_t seed;
    EvictionPolicy policy;
    // Fills what would otherwise be padding. gtest names each case
    // after the raw bytes of its parameter, and padding holds
    // whatever was in memory, so the names changed from run to run.
    std::uint32_t zero = 0;
    std::uint64_t capacitySectors; // 0 = unlimited-ish (huge)
};
static_assert(std::has_unique_object_representations_v<FuzzParams>);

FuzzParams mix(std::uint64_t seed, EvictionPolicy policy,
               std::uint64_t capacitySectors)
{
    return {.seed = seed, .policy = policy,
            .capacitySectors = capacitySectors};
}

class PbaCacheFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

TEST_P(PbaCacheFuzz, UnlimitedCacheMatchesSectorSetExactly)
{
    // Without evictions, contains() must agree with a plain set of
    // resident sectors.
    const FuzzParams params = GetParam();
    Rng rng(params.seed);
    PbaRangeCache cache(1ULL << 40, params.policy);
    std::set<std::uint64_t> resident;

    for (int op = 0; op < 2000; ++op) {
        const SectorCount count = 1 + rng.nextUint(16);
        const std::uint64_t start = rng.nextUint(512);
        const SectorExtent extent{start, count};
        if (rng.nextBool(0.5)) {
            cache.insert(extent);
            for (SectorCount i = 0; i < count; ++i)
                resident.insert(start + i);
        } else {
            bool expected = true;
            for (SectorCount i = 0; i < count; ++i) {
                if (!resident.contains(start + i)) {
                    expected = false;
                    break;
                }
            }
            ASSERT_EQ(cache.contains(extent), expected)
                << "op " << op << " extent [" << start << ","
                << extent.end() << ")";
        }
    }
    ASSERT_EQ(cache.usedBytes(),
              resident.size() * kSectorBytes);
}

TEST_P(PbaCacheFuzz, BudgetNeverExceeded)
{
    const FuzzParams params = GetParam();
    if (params.capacitySectors == 0)
        GTEST_SKIP() << "budget case only";
    Rng rng(params.seed ^ 0xabcdef);
    PbaRangeCache cache(params.capacitySectors * kSectorBytes,
                        params.policy);
    for (int op = 0; op < 5000; ++op) {
        const SectorCount count = 1 + rng.nextUint(32);
        const std::uint64_t start = rng.nextUint(1ULL << 30);
        if (rng.nextBool(0.7))
            cache.insert({start, count});
        else
            cache.contains({start, count});
        ASSERT_LE(cache.usedBytes(), cache.capacityBytes());
    }
}

TEST_P(PbaCacheFuzz, HitsOnlyReturnResidentData)
{
    // Under eviction pressure, a hit must still mean "every sector
    // was inserted at some point" — the cache can forget but never
    // invent coverage. Track all ever-inserted sectors as the
    // superset.
    const FuzzParams params = GetParam();
    if (params.capacitySectors == 0)
        GTEST_SKIP() << "budget case only";
    Rng rng(params.seed ^ 0x5555);
    PbaRangeCache cache(params.capacitySectors * kSectorBytes,
                        params.policy);
    std::set<std::uint64_t> ever;

    for (int op = 0; op < 3000; ++op) {
        const SectorCount count = 1 + rng.nextUint(8);
        const std::uint64_t start = rng.nextUint(4096);
        const SectorExtent extent{start, count};
        if (rng.nextBool(0.6)) {
            cache.insert(extent);
            for (SectorCount i = 0; i < count; ++i)
                ever.insert(start + i);
        } else if (cache.contains(extent)) {
            for (SectorCount i = 0; i < count; ++i)
                ASSERT_TRUE(ever.contains(start + i))
                    << "phantom sector " << start + i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, PbaCacheFuzz,
    ::testing::Values(
        mix(1, EvictionPolicy::Lru, 0),
        mix(2, EvictionPolicy::Fifo, 0),
        mix(3, EvictionPolicy::Lru, 64),
        mix(4, EvictionPolicy::Fifo, 64),
        mix(5, EvictionPolicy::Lru, 512),
        mix(6, EvictionPolicy::Fifo, 512),
        mix(7, EvictionPolicy::Lru, 7),
        mix(8, EvictionPolicy::Fifo, 7)));

/**
 * Brute-force model of PbaRangeCache. Entries sit in a std::list in
 * recency order (front = most recent), and coverage is found sector
 * by sector. A full hit under LRU refreshes the covering entries left
 * to right; an insert pushes the missing pieces to the front in
 * ascending order, then evicts from the back while over budget.
 */
class ReferenceRangeCache
{
  public:
    ReferenceRangeCache(std::uint64_t capacityBytes,
                        EvictionPolicy policy)
        : capacityBytes_(capacityBytes), policy_(policy)
    {
    }

    bool
    contains(const SectorExtent &extent)
    {
        const std::vector<Entry> owner = owners(extent);
        for (const Entry entry : owner) {
            if (entry == entries_.end())
                return false;
        }
        if (policy_ == EvictionPolicy::Lru) {
            for (std::size_t i = 0; i < owner.size(); ++i) {
                if (i == 0 || owner[i] != owner[i - 1])
                    entries_.splice(entries_.begin(), entries_,
                                    owner[i]);
            }
        }
        return true;
    }

    void
    insert(const SectorExtent &extent)
    {
        if (extent.empty() || capacityBytes_ == 0)
            return;
        const std::vector<Entry> owner = owners(extent);
        std::vector<SectorExtent> missing;
        for (std::size_t i = 0; i < owner.size(); ++i) {
            if (owner[i] != entries_.end())
                continue;
            if (!missing.empty() &&
                missing.back().end() == extent.start + i)
                ++missing.back().count;
            else
                missing.push_back({extent.start + i, 1});
        }
        for (const SectorExtent &piece : missing) {
            entries_.push_front(piece);
            usedBytes_ += piece.bytes();
        }
        while (usedBytes_ > capacityBytes_ && !entries_.empty()) {
            usedBytes_ -= entries_.back().bytes();
            entries_.pop_back();
            ++evictions_;
        }
    }

    std::uint64_t usedBytes() const { return usedBytes_; }
    std::size_t entryCount() const { return entries_.size(); }
    std::uint64_t evictionCount() const { return evictions_; }

  private:
    using Entry = std::list<SectorExtent>::iterator;

    /** The entry holding each sector of extent, or end(). */
    std::vector<Entry>
    owners(const SectorExtent &extent)
    {
        std::vector<Entry> owner(extent.count, entries_.end());
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            const std::uint64_t from = std::max(it->start, extent.start);
            const std::uint64_t to = std::min(it->end(), extent.end());
            for (std::uint64_t sector = from; sector < to; ++sector)
                owner[sector - extent.start] = it;
        }
        return owner;
    }

    std::uint64_t capacityBytes_;
    EvictionPolicy policy_;
    std::list<SectorExtent> entries_;
    std::uint64_t usedBytes_ = 0;
    std::uint64_t evictions_ = 0;
};

struct DiffParams
{
    std::uint64_t seed;
    EvictionPolicy policy;
    std::uint32_t zero = 0; // no padding; see FuzzParams
    std::uint64_t capacitySectors; // 0 = unlimited-ish (huge)
    std::uint64_t maxExtentSectors;
    std::uint64_t spaceSectors;
    std::uint64_t driftSectors; // the window moves up this much per op
};
static_assert(std::has_unique_object_representations_v<DiffParams>);

DiffParams diff(std::uint64_t seed, EvictionPolicy policy,
                std::uint64_t capacitySectors,
                std::uint64_t maxExtentSectors,
                std::uint64_t spaceSectors,
                std::uint64_t driftSectors = 0)
{
    return {.seed = seed, .policy = policy,
            .capacitySectors = capacitySectors,
            .maxExtentSectors = maxExtentSectors,
            .spaceSectors = spaceSectors,
            .driftSectors = driftSectors};
}

/**
 * Drive the cache and the reference with the same `ops` random
 * operations; after each call, the hit result and every counter must
 * agree. Besides lone inserts and lookups, an op is the replay
 * engine's order (look an extent up, insert it on a miss), or a
 * lookup whose insert comes only after a call on another extent: a
 * lookup or an insert.
 */
void
expectMatchesReference(const DiffParams &params, std::uint64_t ops)
{
    const std::uint64_t capacityBytes =
        params.capacitySectors == 0 ? 1ULL << 40
                                    : params.capacitySectors *
                                          kSectorBytes;
    Rng rng(params.seed);
    PbaRangeCache cache(capacityBytes, params.policy);
    ReferenceRangeCache reference(capacityBytes, params.policy);

    std::uint64_t op = 0;
    const auto randomExtent = [&] {
        return SectorExtent{op * params.driftSectors +
                                rng.nextUint(params.spaceSectors),
                            1 + rng.nextUint(params.maxExtentSectors)};
    };
    const auto where = [&](const SectorExtent &extent) {
        return "op " + std::to_string(op) + " extent [" +
               std::to_string(extent.start) + "," +
               std::to_string(extent.end()) + ")";
    };
    const auto expectSameCounters = [&](const SectorExtent &extent) {
        EXPECT_EQ(cache.usedBytes(), reference.usedBytes())
            << where(extent);
        EXPECT_EQ(cache.entryCount(), reference.entryCount())
            << where(extent);
        EXPECT_EQ(cache.evictionCount(), reference.evictionCount())
            << where(extent);
    };
    const auto insert = [&](const SectorExtent &extent) {
        cache.insert(extent);
        reference.insert(extent);
        expectSameCounters(extent);
    };
    const auto contains = [&](const SectorExtent &extent) {
        const bool hit = cache.contains(extent);
        EXPECT_EQ(hit, reference.contains(extent)) << where(extent);
        expectSameCounters(extent);
        return hit;
    };

    for (; op < ops && !::testing::Test::HasFailure(); ++op) {
        const SectorExtent a = randomExtent();
        switch (rng.nextUint(5)) {
        case 0:
            insert(a);
            break;
        case 1:
            contains(a);
            break;
        case 2:
            if (!contains(a))
                insert(a);
            break;
        case 3: {
            const SectorExtent b = randomExtent();
            contains(a);
            contains(b);
            insert(a);
            break;
        }
        default: {
            const SectorExtent b = randomExtent();
            contains(a);
            insert(b);
            insert(a);
            break;
        }
        }
    }
}

class PbaCacheDifferential : public ::testing::TestWithParam<DiffParams>
{
};

TEST_P(PbaCacheDifferential, MatchesBruteForceReference)
{
    expectMatchesReference(GetParam(), 3000);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PbaCacheDifferential,
    ::testing::Values(
        // The PbaCacheFuzz capacities.
        diff(11, EvictionPolicy::Lru, 0, 16, 2048),
        diff(12, EvictionPolicy::Fifo, 0, 16, 2048),
        diff(13, EvictionPolicy::Lru, 64, 16, 2048),
        diff(14, EvictionPolicy::Fifo, 64, 16, 2048),
        diff(15, EvictionPolicy::Lru, 512, 16, 2048),
        diff(16, EvictionPolicy::Fifo, 512, 16, 2048),
        diff(17, EvictionPolicy::Lru, 7, 16, 2048),
        diff(18, EvictionPolicy::Fifo, 7, 16, 2048),
        // Hundreds of small entries: index blocks split and merge.
        diff(19, EvictionPolicy::Lru, 2048, 6, 16384),
        diff(20, EvictionPolicy::Fifo, 2048, 6, 16384),
        diff(21, EvictionPolicy::Lru, 2048, 6, 16384),
        diff(22, EvictionPolicy::Fifo, 2048, 6, 16384),
        // Long extents: one lookup spans many entries.
        diff(23, EvictionPolicy::Lru, 3072, 200, 4096),
        diff(24, EvictionPolicy::Fifo, 3072, 200, 4096),
        diff(25, EvictionPolicy::Lru, 3072, 200, 4096),
        diff(26, EvictionPolicy::Fifo, 3072, 200, 4096),
        // A window drifting up, as log appends do: the low blocks
        // empty, merge and are dropped.
        diff(27, EvictionPolicy::Lru, 2048, 6, 16384, 4),
        diff(28, EvictionPolicy::Fifo, 2048, 6, 16384, 4)));

TEST(PbaCacheDifferentialManyBlocks, MatchesBruteForceReference)
{
    // Thousands of one-sector entries: the index passes 64 blocks,
    // so a search halves the block starts before probing them.
    for (const EvictionPolicy policy :
         {EvictionPolicy::Lru, EvictionPolicy::Fifo})
        expectMatchesReference(diff(29, policy, 8192, 1, 1ULL << 20),
                               12000);
}

} // namespace
} // namespace logseek::disk
