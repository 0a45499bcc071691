/**
 * @file
 * Differential crash-recovery tests: the full matrix of translation
 * layers × {offline torn-tail, zoned-device power loss}, crashed at
 * every Nth operation and remounted. Each crash
 * point must recover a prefix-consistent subset of the uncrashed
 * reference (byte-identical journal prefix, clean Fsck, oracle-
 * equal translation state), deterministically under a fixed seed.
 * Built on stl::testing::runCrashMatrix — the same harness the
 * crash_recovery_bench smoke binary drives.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stl/simulator.h"
#include "stl/testing/crash_harness.h"
#include "util/logging.h"

namespace logseek::stl
{
namespace
{

using testing::CrashCase;
using testing::CrashMatrixResult;
using testing::crashTrace;
using testing::runCrashMatrix;

constexpr std::uint64_t kSeed = 0x7265636f76657279ULL;
constexpr std::size_t kOps = 240;

trace::Trace
matrixTrace()
{
    return crashTrace(kOps, kSeed, bytesToSectors(2 * kMiB));
}

/** Every cell of the matrix for one device leg. */
std::vector<CrashCase>
matrixCells(bool zoned_device)
{
    std::vector<CrashCase> cells;
    cells.push_back({TranslationKind::LogStructured, false,
                     zoned_device, 31, kSeed});
    cells.push_back({TranslationKind::LogStructured, true,
                     zoned_device, 31, kSeed});
    cells.push_back({TranslationKind::FiniteLogStructured, false,
                     zoned_device, 37, kSeed});
    // GC-active finite-log cells: cost-benefit victims with
    // hot/cold stream separation, and SMORE-style zone-granular
    // reclamation. Every crash point must still pass Fsck's
    // per-stream frontier and GC-liveness checks.
    cells.push_back({TranslationKind::FiniteLogStructured, false,
                     zoned_device, 37, kSeed,
                     gc::CleaningPolicyKind::CostBenefit, 2});
    cells.push_back({TranslationKind::FiniteLogStructured, false,
                     zoned_device, 43, kSeed,
                     gc::CleaningPolicyKind::ZoneGranular, 1});
    cells.push_back({TranslationKind::MediaCache, false,
                     zoned_device, 29, kSeed});
    cells.push_back({TranslationKind::Conventional, false,
                     zoned_device, 53, kSeed});
    return cells;
}

TEST(CrashRecovery, OfflineTornTailMatrixRecoversConsistently)
{
    const trace::Trace trace = matrixTrace();
    for (const CrashCase &cell : matrixCells(false)) {
        SCOPED_TRACE(cell.label());
        const CrashMatrixResult result =
            runCrashMatrix(cell, trace);
        EXPECT_TRUE(result.ok()) << result.failure;
        EXPECT_GT(result.crashesRun, 0U);
        if (cell.kind != TranslationKind::Conventional) {
            EXPECT_GT(result.epochsApplied, 0U);
            EXPECT_GT(result.tornTails, 0U);
        }
        // Power loss tears, it never corrupts: a damaged frame
        // here would mean the tear model invented corruption.
        EXPECT_EQ(result.damagedFrames, 0U);
    }
}

TEST(CrashRecovery, CleaningFiniteLogMatrixRecoversConsistently)
{
    // matrixTrace() writes less than the finite-log cells' capacity,
    // so their crash points never mount a segment reset. Five times
    // the ops make every finite-log cell clean, so mounts rebuild
    // reclaimed segments (free count, open flags, summaries, live
    // bits) and torn tails can cut a pass between its re-appends and
    // its reset.
    const trace::Trace trace =
        crashTrace(5 * kOps, kSeed, bytesToSectors(2 * kMiB));
    for (const bool zoned_device : {false, true}) {
        for (const CrashCase &cell : matrixCells(zoned_device)) {
            if (cell.kind != TranslationKind::FiniteLogStructured)
                continue;
            SCOPED_TRACE(cell.label());
            const SimResult uncrashed =
                Simulator(testing::crashCaseConfig(cell)).run(trace);
            EXPECT_GT(uncrashed.cleaningMerges, 0U);
            const CrashMatrixResult result =
                runCrashMatrix(cell, trace);
            EXPECT_TRUE(result.ok()) << result.failure;
            EXPECT_GT(result.crashesRun, 0U);
        }
    }
}

TEST(CrashRecovery, ZonedDevicePowerLossMatrixRecoversConsistently)
{
    const trace::Trace trace = matrixTrace();
    for (const CrashCase &cell : matrixCells(true)) {
        SCOPED_TRACE(cell.label());
        const CrashMatrixResult result =
            runCrashMatrix(cell, trace);
        EXPECT_TRUE(result.ok()) << result.failure;
        EXPECT_GT(result.crashesRun, 0U);
    }
}

TEST(CrashRecovery, RecoveryIsDeterministicUnderFixedSeed)
{
    const trace::Trace trace = matrixTrace();
    for (const bool zoned_device : {false, true}) {
        CrashCase cell{TranslationKind::FiniteLogStructured,
                       false, zoned_device, 41, kSeed};
        SCOPED_TRACE(cell.label());
        const CrashMatrixResult first =
            runCrashMatrix(cell, trace);
        const CrashMatrixResult second =
            runCrashMatrix(cell, trace);
        ASSERT_TRUE(first.ok()) << first.failure;
        EXPECT_EQ(first.stateDigest, second.stateDigest);
        EXPECT_EQ(first.crashesRun, second.crashesRun);
        EXPECT_EQ(first.epochsApplied, second.epochsApplied);
        EXPECT_EQ(first.tornTails, second.tornTails);
    }
}

TEST(CrashRecovery, DeviceCrashSurfacesDataLossThroughTryRun)
{
    const trace::Trace trace = matrixTrace();
    SegmentJournal journal;
    SimConfig config =
        testing::crashCaseConfig({TranslationKind::LogStructured,
                                  false, true, 0, kSeed});
    config.journal = &journal;
    config.zonedDevice->crash = {5, kSeed};
    const StatusOr<SimResult> result =
        Simulator(config).tryRun(trace);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::DataLoss);
    // The journal survives the dead device and scans cleanly up
    // to the crash.
    EXPECT_GT(journal.epochs(), 0U);
    EXPECT_FALSE(scanJournal(journal.image()).records.empty());
}

TEST(CrashRecovery, ParanoidFsckRunsCleanEndToEnd)
{
    const trace::Trace trace = matrixTrace();
    for (const TranslationKind kind :
         {TranslationKind::LogStructured,
          TranslationKind::FiniteLogStructured,
          TranslationKind::MediaCache}) {
        SegmentJournal journal;
        SimConfig config = testing::crashCaseConfig(
            {kind, kind == TranslationKind::LogStructured, false,
             0, kSeed});
        config.journal = &journal;
        config.paranoidFsck = true;
        // A violation is fatal inside run(); completing is the
        // assertion.
        const SimResult result = Simulator(config).run(trace);
        EXPECT_EQ(result.reads + result.writes, trace.size());
    }
}

TEST(CrashRecovery, MountRefusesANonFreshLayer)
{
    SegmentJournal journal;
    LogStructuredLayer writer(4096);
    writer.attachJournal(&journal);
    writer.placeWrite({0, 8});

    LogStructuredLayer dirty(4096);
    dirty.placeWrite({0, 8});
    EXPECT_THROW(dirty.mountFromJournal(journal), PanicError);
}

} // namespace
} // namespace logseek::stl
