/**
 * @file
 * Regression test for the Defragmenter's access counts: trigger
 * decisions must be exactly those of the seed's
 * std::map<std::pair<Lba, SectorCount>, uint32_t> implementation.
 *
 * A reference model replicating the ordered-map logic verbatim is
 * replayed side by side over a recorded (seeded synthetic) trace
 * slice of read completions, asserting decision-for-decision
 * equality — a lost count, a key that merges two ranges or a wrong
 * erase order would flip a decision and change every downstream
 * replay result.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "stl/defrag.h"
#include "util/random.h"

namespace logseek::stl
{
namespace
{

/** The seed implementation's decision logic, kept verbatim. */
class ReferenceDefragmenter
{
  public:
    explicit ReferenceDefragmenter(const DefragConfig &config)
        : config_(config)
    {
    }

    bool
    onRead(const SectorExtent &logical, std::size_t fragments)
    {
        if (fragments < config_.minFragments)
            return false;
        if (config_.minAccesses > 1) {
            const auto key =
                std::make_pair(logical.start, logical.count);
            const std::uint32_t seen = ++accessCounts_[key];
            if (seen < config_.minAccesses)
                return false;
            accessCounts_.erase(key);
        }
        ++rewrites_;
        return true;
    }

    std::uint64_t rewriteCount() const { return rewrites_; }
    std::size_t tracked() const { return accessCounts_.size(); }

  private:
    DefragConfig config_;
    std::uint64_t rewrites_ = 0;
    std::map<std::pair<Lba, SectorCount>, std::uint32_t>
        accessCounts_;
};

/** One read completion of a recorded slice. */
struct ReadEvent
{
    SectorExtent extent;
    std::size_t fragments;
};

/**
 * Deterministic trace slice: a hot set of ranges read repeatedly
 * (so minAccesses thresholds are crossed and entries erased and
 * re-inserted) plus a random tail (so many ranges are tracked at
 * once).
 */
std::vector<ReadEvent>
recordedSlice(std::uint64_t seed, std::size_t ops)
{
    Rng rng(seed);
    std::vector<SectorExtent> hot;
    for (std::size_t i = 0; i < 64; ++i)
        hot.push_back(SectorExtent{rng.nextUint(1 << 22),
                                   1 + rng.nextUint(256)});

    std::vector<ReadEvent> events;
    events.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i) {
        SectorExtent extent;
        if (rng.nextBool(0.6)) {
            extent = hot[rng.nextUint(hot.size())];
        } else {
            extent = SectorExtent{rng.nextUint(1 << 22),
                                  1 + rng.nextUint(512)};
        }
        events.push_back(
            ReadEvent{extent, 1 + rng.nextUint(6)});
    }
    return events;
}

void
expectIdenticalDecisions(const DefragConfig &config,
                         std::uint64_t seed, std::size_t ops)
{
    Defragmenter defrag(config);
    ReferenceDefragmenter reference(config);
    const auto slice = recordedSlice(seed, ops);
    for (std::size_t i = 0; i < slice.size(); ++i) {
        const auto &event = slice[i];
        const bool expected =
            reference.onRead(event.extent, event.fragments);
        ASSERT_EQ(defrag.onRead(event.extent, event.fragments),
                  expected)
            << "decision " << i << " diverged (extent "
            << event.extent.start << "+" << event.extent.count
            << ", " << event.fragments << " fragments)";
        ASSERT_EQ(defrag.trackedRanges(), reference.tracked());
    }
    EXPECT_EQ(defrag.rewriteCount(), reference.rewriteCount());
    EXPECT_GT(defrag.rewriteCount(), 0u);
}

TEST(DefragRegression, DecisionsMatchSeedMapMinAccesses2)
{
    expectIdenticalDecisions(
        DefragConfig{/*minFragments=*/2, /*minAccesses=*/2},
        /*seed=*/11, /*ops=*/50'000);
}

TEST(DefragRegression, DecisionsMatchSeedMapMinAccesses4)
{
    expectIdenticalDecisions(
        DefragConfig{/*minFragments=*/3, /*minAccesses=*/4},
        /*seed=*/12, /*ops=*/50'000);
}

TEST(DefragRegression, DecisionsMatchSeedMapNoAccessGate)
{
    // minAccesses == 1 bypasses the table; the gate is fragment
    // count alone.
    expectIdenticalDecisions(
        DefragConfig{/*minFragments=*/2, /*minAccesses=*/1},
        /*seed=*/13, /*ops=*/20'000);
}

TEST(DefragRegression, CollidingRangesStayDistinct)
{
    // Ranges that share their LBA, or whose (lba << 16 | count)
    // packing would coincide, must be counted separately.
    DefragConfig config{/*minFragments=*/2, /*minAccesses=*/3};
    Defragmenter defrag(config);
    ReferenceDefragmenter reference(config);
    const SectorExtent a{100, 5};
    const SectorExtent b{100, 5 + (SectorCount{1} << 16)};
    const SectorExtent c{100 + (Lba{1} << 48), 5};
    for (int round = 0; round < 7; ++round) {
        for (const auto &extent : {a, b, c}) {
            ASSERT_EQ(defrag.onRead(extent, 3),
                      reference.onRead(extent, 3));
        }
    }
    EXPECT_EQ(defrag.rewriteCount(), reference.rewriteCount());
    EXPECT_GT(defrag.rewriteCount(), 0u);
}

} // namespace
} // namespace logseek::stl
