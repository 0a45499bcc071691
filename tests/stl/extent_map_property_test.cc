/**
 * @file
 * Property-based tests for ExtentMap: random mapping sequences are
 * checked against a brute-force per-sector reference model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "stl/extent_map.h"
#include "util/random.h"

namespace logseek::stl
{
namespace
{

/** Per-sector reference model: sector -> pba (absent = hole). */
class ReferenceMap
{
  public:
    void
    mapRange(Lba lba, Pba pba, SectorCount count)
    {
        for (SectorCount i = 0; i < count; ++i)
            sectors_[lba + i] = pba + i;
    }

    /** pba of a sector, with identity holes. */
    Pba
    lookup(Lba lba) const
    {
        const auto it = sectors_.find(lba);
        return it == sectors_.end() ? lba : it->second;
    }

    bool
    isMapped(Lba lba) const
    {
        return sectors_.contains(lba);
    }

    SectorCount mappedSectors() const { return sectors_.size(); }

  private:
    std::map<Lba, Pba> sectors_;
};

void
expectEquivalent(const ExtentMap &map, const ReferenceMap &reference,
                 Lba space_end)
{
    // Per-sector agreement over the whole space.
    const auto segments = map.translate({0, space_end});
    Lba cursor = 0;
    for (const auto &segment : segments) {
        ASSERT_EQ(segment.logical.start, cursor)
            << "segments must tile the request";
        for (SectorCount i = 0; i < segment.logical.count; ++i) {
            const Lba lba = segment.logical.start + i;
            ASSERT_EQ(segment.pba + i, reference.lookup(lba))
                << "pba mismatch at lba " << lba;
            ASSERT_EQ(segment.mapped, reference.isMapped(lba))
                << "mapped flag mismatch at lba " << lba;
        }
        cursor = segment.logical.end();
    }
    ASSERT_EQ(cursor, space_end);
    ASSERT_EQ(map.mappedSectors(), reference.mappedSectors());
}

void
expectWellFormed(const ExtentMap &map)
{
    // Entries are disjoint, sorted, non-empty, and maximally
    // coalesced (no two adjacent entries are mergeable).
    Lba prev_end = 0;
    Pba prev_pba_end = 0;
    bool first = true;
    map.forEachEntry([&](Lba lba, Pba pba, SectorCount count) {
        ASSERT_GT(count, 0u);
        if (!first) {
            ASSERT_GE(lba, prev_end) << "entries overlap";
            const bool mergeable =
                lba == prev_end && pba == prev_pba_end;
            ASSERT_FALSE(mergeable) << "uncoalesced entries at "
                                    << lba;
        }
        prev_end = lba + count;
        prev_pba_end = pba + count;
        first = false;
    });
}

struct FuzzParams
{
    std::uint64_t seed;
    int operations;
    // Fills what would otherwise be padding. gtest names each case
    // after the raw bytes of its parameter, and padding holds
    // whatever was in memory, so the names changed from run to run.
    std::int32_t zero = 0;
    Lba space;
    SectorCount max_io;
};
static_assert(std::has_unique_object_representations_v<FuzzParams>);

FuzzParams
fuzz(std::uint64_t seed, int operations, Lba space,
     SectorCount max_io)
{
    return {.seed = seed, .operations = operations, .space = space,
            .max_io = max_io};
}

class ExtentMapFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

TEST_P(ExtentMapFuzz, MatchesReferenceModel)
{
    const FuzzParams params = GetParam();
    Rng rng(params.seed);
    ExtentMap map;
    ReferenceMap reference;
    Pba frontier = params.space; // log-style fresh pba per write

    for (int op = 0; op < params.operations; ++op) {
        const SectorCount count =
            1 + rng.nextUint(params.max_io);
        const Lba lba = rng.nextUint(params.space - count);
        map.mapRange(lba, frontier, count);
        reference.mapRange(lba, frontier, count);
        frontier += count;

        if (op % 16 == 0)
            expectWellFormed(map);
    }
    expectEquivalent(map, reference, params.space);
    expectWellFormed(map);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSequences, ExtentMapFuzz,
    ::testing::Values(fuzz(1, 200, 256, 16), fuzz(2, 500, 512, 8),
                      fuzz(3, 500, 128, 32), fuzz(4, 1000, 1024, 64),
                      fuzz(5, 2000, 300, 10), fuzz(6, 100, 64, 64),
                      fuzz(7, 3000, 2048, 24),
                      fuzz(8, 1500, 4096, 128)));

/** Sequential-write pattern must coalesce into a single entry. */
TEST(ExtentMapProperty, SequentialLogWritesCoalesceCompletely)
{
    ExtentMap map;
    Pba frontier = 100000;
    for (Lba lba = 0; lba < 1000; lba += 10) {
        map.mapRange(lba, frontier, 10);
        frontier += 10;
    }
    EXPECT_EQ(map.entryCount(), 1u);
    EXPECT_EQ(map.mappedSectors(), 1000u);
}

/** Reverse-order writes to adjacent LBAs never coalesce. */
TEST(ExtentMapProperty, ReverseLogWritesStayFragmented)
{
    ExtentMap map;
    Pba frontier = 100000;
    for (Lba lba = 1000; lba > 0; lba -= 10) {
        map.mapRange(lba - 10, frontier, 10);
        frontier += 10;
    }
    EXPECT_EQ(map.entryCount(), 100u);
}

/** Overwriting everything with one extent collapses the map. */
TEST(ExtentMapProperty, FullRewriteCollapsesToOneEntry)
{
    Rng rng(42);
    ExtentMap map;
    Pba frontier = 10000;
    for (int i = 0; i < 300; ++i) {
        const SectorCount count = 1 + rng.nextUint(16);
        const Lba lba = rng.nextUint(1024 - count);
        map.mapRange(lba, frontier, count);
        frontier += count;
    }
    map.mapRange(0, frontier, 1024);
    EXPECT_EQ(map.entryCount(), 1u);
    EXPECT_EQ(map.mappedSectors(), 1024u);
}

} // namespace
} // namespace logseek::stl
