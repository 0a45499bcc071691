/**
 * @file
 * Property-based tests for PbaRangeCache: random insert/contains
 * sequences validated against a brute-force per-sector reference
 * (coverage correctness) plus budget invariants.
 */

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

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

} // namespace
} // namespace logseek::disk
