/**
 * @file
 * Unit tests for the finite log-structured layer with greedy
 * garbage collection, including the defragmentation/cleaning
 * interaction the paper warns about (§IV-A).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "stl/finite_log.h"
#include "stl/segment_journal.h"
#include "stl/simulator.h"
#include "util/logging.h"
#include "util/random.h"

namespace logseek::stl
{
namespace
{

FiniteLogConfig
tinyLog()
{
    FiniteLogConfig config;
    config.capacityBytes = 8 * 32 * kSectorBytes; // 8 segments
    config.segmentBytes = 32 * kSectorBytes;      // of 32 sectors
    config.cleanReserveSegments = 2;
    config.cleanTargetSegments = 4;
    return config;
}

TEST(FiniteLog, ConstructionAndGeometry)
{
    FiniteLogStructuredLayer layer(1000, tinyLog());
    EXPECT_EQ(layer.logStart(), 1000u);
    EXPECT_EQ(layer.segmentCount(), 8u);
    EXPECT_EQ(layer.freeSegments(), 7u); // one open
    EXPECT_EQ(layer.liveSectors(), 0u);
}

TEST(FiniteLog, WritesAppendSequentially)
{
    FiniteLogStructuredLayer layer(1000, tinyLog());
    const auto a = layer.placeWrite({0, 8});
    const auto b = layer.placeWrite({100, 8});
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].pba, 1000u);
    EXPECT_EQ(b[0].pba, 1008u);
    EXPECT_EQ(layer.liveSectors(), 16u);
    EXPECT_EQ(layer.segmentLive(0), 16u);
}

TEST(FiniteLog, WriteSplitsAcrossSegments)
{
    FiniteLogStructuredLayer layer(1000, tinyLog());
    layer.placeWrite({0, 24});
    const auto placed = layer.placeWrite({100, 16});
    ASSERT_EQ(placed.size(), 2u);
    EXPECT_EQ(placed[0].physical(), (SectorExtent{1024, 8}));
    EXPECT_EQ(placed[1].physical(), (SectorExtent{1032, 8}));
    EXPECT_EQ(layer.segmentLive(0), 32u);
    EXPECT_EQ(layer.segmentLive(1), 8u);
}

TEST(FiniteLog, OverwriteKillsOldLiveness)
{
    FiniteLogStructuredLayer layer(1000, tinyLog());
    layer.placeWrite({0, 8});
    layer.placeWrite({0, 8}); // overwrite: old copy is dead
    EXPECT_EQ(layer.liveSectors(), 8u);
    EXPECT_EQ(layer.segmentLive(0), 8u);
    const auto segments = layer.translateRead({0, 8});
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].pba, 1008u);
}

TEST(FiniteLog, PartialOverwriteAdjustsLiveness)
{
    FiniteLogStructuredLayer layer(1000, tinyLog());
    layer.placeWrite({0, 10});
    layer.placeWrite({4, 2});
    EXPECT_EQ(layer.liveSectors(), 10u);
    EXPECT_EQ(layer.segmentLive(0), 12u - 2u); // 12 written, 2 dead
}

TEST(FiniteLog, NoCleaningWhileFreeSegmentsRemain)
{
    FiniteLogStructuredLayer layer(1000, tinyLog());
    layer.placeWrite({0, 32}); // one segment's worth
    EXPECT_TRUE(layer.maintenance().empty());
    EXPECT_EQ(layer.cleanings(), 0u);
}

TEST(FiniteLog, DeadSegmentsReclaimForFree)
{
    FiniteLogStructuredLayer layer(1000, tinyLog());
    // Fill six segments with data, overwriting the same range: all
    // but the newest copy is dead, and the reserve (2 free) is hit.
    for (int round = 0; round < 6; ++round)
        layer.placeWrite({0, 32});
    EXPECT_EQ(layer.freeSegments(), 2u);
    const auto accesses = layer.maintenance();
    // Reclaiming dead segments needs no data movement.
    EXPECT_TRUE(accesses.empty());
    EXPECT_GE(layer.freeSegments(), 4u);
    EXPECT_GE(layer.cleanings(), 1u);
}

TEST(FiniteLog, CleaningMovesLiveData)
{
    FiniteLogStructuredLayer layer(1000, tinyLog());
    // Two hot LBAs per segment-sized round; the rest is rewritten,
    // so victims keep a little live data each.
    Rng rng(1);
    for (int round = 0; round < 6; ++round) {
        layer.placeWrite({static_cast<Lba>(round) * 4, 4});
        layer.placeWrite({500, 28}); // churn: mostly dead later
    }
    const SectorCount live_before = layer.liveSectors();
    const auto accesses = layer.maintenance();
    EXPECT_FALSE(accesses.empty());
    EXPECT_EQ(layer.liveSectors(), live_before); // moved, not lost
    EXPECT_GE(layer.freeSegments(), 4u);

    // Every moved extent was read then written.
    bool saw_read = false;
    bool saw_write = false;
    for (const auto &access : accesses) {
        saw_read |= access.type == trace::IoType::Read;
        saw_write |= access.type == trace::IoType::Write;
    }
    EXPECT_TRUE(saw_read);
    EXPECT_TRUE(saw_write);
}

TEST(FiniteLog, TranslationStaysCorrectAcrossCleaning)
{
    FiniteLogStructuredLayer layer(1000, tinyLog());
    Rng rng(7);
    std::map<Lba, int> versions;
    std::map<Lba, Pba> expect; // via translate after each step

    for (int op = 0; op < 300; ++op) {
        const SectorCount count = 1 + rng.nextUint(8);
        const Lba lba = rng.nextUint(64 - count);
        layer.placeWrite({lba, count});
        (void)layer.maintenance();

        // The forward map must keep covering all written LBAs and
        // reads must resolve inside the log region.
        const auto segments = layer.translateRead({lba, count});
        for (const auto &segment : segments) {
            EXPECT_TRUE(segment.mapped);
            EXPECT_GE(segment.pba, layer.logStart());
        }
    }
    (void)versions;
    (void)expect;
}

TEST(FiniteLog, OvercommittedLogIsFatal)
{
    FiniteLogConfig config = tinyLog();
    FiniteLogStructuredLayer layer(10000, config);
    // 8 segments x 32 sectors = 256 physical; write 240 distinct
    // live sectors: cleaning cannot reclaim anything.
    EXPECT_THROW(
        {
            for (Lba lba = 0; lba < 240; lba += 16) {
                layer.placeWrite({lba, 16});
                (void)layer.maintenance();
            }
        },
        FatalError);
}

TEST(FiniteLog, RemountThenContinueMatchesUninterruptedLog)
{
    // Mount rebuilds the segment summaries, live bits, free count
    // and open flags from the journal. A mounted log must then
    // place and clean exactly as the log that wrote the journal.
    // One stream only: the router's interval history is not
    // journaled, so a multi-stream log may route differently.
    for (const auto policy : {gc::CleaningPolicyKind::Greedy,
                              gc::CleaningPolicyKind::CostBenefit,
                              gc::CleaningPolicyKind::ZoneGranular}) {
        SCOPED_TRACE(gc::toString(policy));
        FiniteLogConfig config = tinyLog();
        config.gc.policy = policy;
        const Lba space = 128;
        SegmentJournal journal;
        FiniteLogStructuredLayer original(space, config);
        original.attachJournal(&journal);
        Rng rng(31);
        SegmentBuffer placed;
        for (int op = 0; op < 1500; ++op) {
            const SectorCount count = 1 + rng.nextUint(12);
            original.placeWriteInto(
                {rng.nextUint(space - count), count}, placed);
            (void)original.maintenance();
        }
        const std::uint64_t mounted_cleanings = original.cleanings();
        ASSERT_GT(mounted_cleanings, 0U);

        FiniteLogStructuredLayer mounted(space, config);
        mounted.mountFromJournal(journal);
        SegmentBuffer remounted_placed;
        for (int op = 0; op < 1500; ++op) {
            SCOPED_TRACE(op);
            const SectorCount count = 1 + rng.nextUint(12);
            const SectorExtent write{rng.nextUint(space - count),
                                     count};
            original.placeWriteInto(write, placed);
            mounted.placeWriteInto(write, remounted_placed);
            ASSERT_EQ(std::vector<Segment>(remounted_placed.begin(),
                                           remounted_placed.end()),
                      std::vector<Segment>(placed.begin(),
                                           placed.end()));

            const auto want = original.maintenance();
            const auto got = mounted.maintenance();
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(got[i].physical, want[i].physical);
                EXPECT_EQ(got[i].type, want[i].type);
            }
            ASSERT_EQ(mounted.freeSegments(), original.freeSegments());
            for (std::uint32_t i = 0; i < original.segmentCount();
                 ++i) {
                ASSERT_EQ(mounted.segmentLive(i),
                          original.segmentLive(i));
                ASSERT_EQ(mounted.segmentOpen(i),
                          original.segmentOpen(i));
            }
        }
        EXPECT_GT(mounted.cleanings(), mounted_cleanings);
        EXPECT_EQ(mounted.cleanings(), original.cleanings());
    }
}

TEST(FiniteLog, InvalidConfigPanics)
{
    FiniteLogConfig one_segment;
    one_segment.capacityBytes = 32 * kSectorBytes;
    one_segment.segmentBytes = 32 * kSectorBytes;
    EXPECT_THROW(FiniteLogStructuredLayer(0, one_segment),
                 PanicError);

    FiniteLogConfig bad_target = tinyLog();
    bad_target.cleanTargetSegments = 2; // equals reserve
    EXPECT_THROW(FiniteLogStructuredLayer(0, bad_target),
                 PanicError);
}

// ---- Simulator integration ----

SimConfig
finiteSim()
{
    SimConfig config;
    config.translation = TranslationKind::FiniteLogStructured;
    config.finiteLog = tinyLog();
    return config;
}

TEST(FiniteLogSim, LabelAndCleaningAccounting)
{
    trace::Trace trace("t");
    // Heavy churn over a small working set forces cleaning.
    Rng rng(3);
    for (int i = 0; i < 200; ++i)
        trace.appendWrite(rng.nextUint(56), 8);

    const SimResult result = Simulator(finiteSim()).run(trace);
    EXPECT_EQ(result.configLabel, "FiniteLS");
    EXPECT_GT(result.cleaningMerges, 0u);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(result.hostWriteBytes),
        static_cast<double>(200 * 8 * kSectorBytes));
    // Churny workloads keep WAF near 1 (victims mostly dead).
    EXPECT_GE(result.writeAmplification(), 1.0);
}

TEST(FiniteLogSim, MatchesInfiniteLogWhenCapacityAmple)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(4, 2);
    trace.appendRead(0, 10);

    SimConfig infinite;
    infinite.translation = TranslationKind::LogStructured;
    const SimResult a = Simulator(infinite).run(trace);

    SimConfig finite;
    finite.translation = TranslationKind::FiniteLogStructured;
    finite.finiteLog.capacityBytes = 64 * kMiB;
    const SimResult b = Simulator(finite).run(trace);

    EXPECT_EQ(a.readSeeks, b.readSeeks);
    EXPECT_EQ(a.readFragments, b.readFragments);
    EXPECT_EQ(b.cleaningSeeks, 0u);
}

TEST(FiniteLogSim, DefragmentationIncreasesCleaningPressure)
{
    // The paper's §IV-A caveat: defragmentation consumes free
    // space, eventually forcing extra cleaning. Build a workload
    // whose fragmented ranges are re-read so defrag fires a lot.
    trace::Trace trace("t");
    Rng rng(11);
    for (int round = 0; round < 40; ++round) {
        for (int u = 0; u < 4; ++u)
            trace.appendWrite(rng.nextUint(120), 4);
        trace.appendRead(0, 124);
    }

    SimConfig plain = finiteSim();
    plain.finiteLog.capacityBytes = 24 * 32 * kSectorBytes;
    // The cleaning target must leave headroom for the largest
    // single request (the 124-sector defrag rewrite, ~4 segments)
    // plus the writes that precede it within one host operation.
    plain.finiteLog.cleanReserveSegments = 5;
    plain.finiteLog.cleanTargetSegments = 10;
    const SimResult base = Simulator(plain).run(trace);

    SimConfig with_defrag = plain;
    with_defrag.defrag = DefragConfig{};
    const SimResult defragged =
        Simulator(with_defrag).run(trace);

    EXPECT_GT(defragged.defragRewrites, 0u);
    // Defrag rewrites churn the log: more segments must be
    // reclaimed, and total media writes per host write grow. (The
    // per-reclaim move cost can be tiny — rewrites leave victims
    // fully dead — so reclaim count, not moved bytes, is the
    // pressure signal.)
    EXPECT_GT(defragged.cleaningMerges, base.cleaningMerges);
    EXPECT_GT(defragged.writeAmplification(),
              base.writeAmplification());
}

} // namespace
} // namespace logseek::stl
