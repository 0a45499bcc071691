/**
 * @file
 * ZonedDevice tests: the randomized differential write-pointer
 * check against a straight-line reference model, the seeded fault
 * model's determinism, and the recovery semantics (retries, the
 * exhausted budget, the read-error log, degraded results).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "disk/zoned_device.h"
#include "util/random.h"

namespace logseek::disk
{
namespace
{

constexpr SectorCount kZoneSectors = 64;

ZoneLayout
swrLayout(std::uint64_t anchor = 0)
{
    ZoneLayout layout;
    layout.zoneSectors = kZoneSectors;
    layout.type = ZoneType::SequentialWriteRequired;
    layout.maxOpenZones = 8;
    layout.anchorSector = anchor;
    return layout;
}

/**
 * The straight-line reference model: the zone grid reduced to "a
 * write of a piece inside a zone leaves that zone's pointer at the
 * piece's end" — which is what the device must guarantee after its
 * reset/realign recovery, whatever path each write took.
 */
struct ReferenceModel
{
    std::uint64_t anchor;
    std::map<std::size_t, std::uint64_t> wp;

    std::size_t
    zoneOf(std::uint64_t sector) const
    {
        if (anchor > 0) {
            if (sector < anchor)
                return 0;
            return 1 + static_cast<std::size_t>(
                           (sector - anchor) / kZoneSectors);
        }
        return static_cast<std::size_t>(sector / kZoneSectors);
    }

    std::uint64_t
    zoneEnd(std::size_t index) const
    {
        if (anchor > 0)
            return index == 0 ? anchor
                              : anchor + index * kZoneSectors;
        return (index + 1) * kZoneSectors;
    }

    void
    write(const SectorExtent &extent)
    {
        for (std::uint64_t sector = extent.start;
             sector < extent.end();) {
            const std::size_t index = zoneOf(sector);
            const std::uint64_t piece_end =
                std::min(extent.end(), zoneEnd(index));
            wp[index] = piece_end;
            sector = piece_end;
        }
    }
};

void
runDifferential(std::uint64_t anchor, std::uint64_t seed)
{
    ZonedDevice device(swrLayout(anchor), ZonedDeviceOptions{});
    ReferenceModel model{anchor, {}};
    Rng rng(seed);

    const std::uint64_t span = 32 * kZoneSectors;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t start = rng.nextUint(span);
        const SectorCount count = 1 + rng.nextUint(48);
        if (i % 7 == 0) {
            // Land exactly on a zone start: the segment-reuse
            // rewind path (reset + write).
            const std::size_t index = model.zoneOf(start);
            start = index == 0
                        ? 0
                        : model.zoneEnd(index) - kZoneSectors;
        }
        const SectorExtent extent{start, count};
        const DeviceWriteResult result = device.write(extent);
        EXPECT_EQ(result.failedSectors, 0u);
        model.write(extent);

        // Interleave reads; they must never move a pointer.
        if (i % 5 == 0)
            device.read({rng.nextUint(span), 8});
    }

    for (const auto &[index, expected] : model.wp) {
        SCOPED_TRACE("zone " + std::to_string(index));
        ASSERT_LT(index, device.zones().size());
        EXPECT_EQ(device.zones().zone(index).writePointer,
                  expected);
    }
    // Zones the model never wrote must still be pristine.
    for (std::size_t i = 0; i < device.zones().size(); ++i) {
        if (model.wp.contains(i))
            continue;
        EXPECT_EQ(device.zones().zone(i).writePointer,
                  device.zones().zone(i).start);
    }
}

TEST(ZonedDeviceDifferential, RandomTracesMatchReferenceModel)
{
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 12345ULL})
        runDifferential(/*anchor=*/0, seed);
}

TEST(ZonedDeviceDifferential, AnchoredGridMatchesReferenceModel)
{
    // An off-grid anchor the way the replay engine sets one (the
    // identity region's end is rarely a zone multiple).
    for (std::uint64_t seed : {3ULL, 99ULL, 2026ULL})
        runDifferential(/*anchor=*/100, seed);
}

TEST(ZonedDeviceFaults, CleanDeviceTouchesNoFaultPath)
{
    ZonedDevice device(swrLayout(), ZonedDeviceOptions{});
    device.write({0, 32});
    const DeviceReadResult read = device.read({0, 32});
    EXPECT_EQ(read.retries, 0u);
    EXPECT_EQ(read.failedSectors, 0u);
    EXPECT_FALSE(read.degraded());
    EXPECT_TRUE(device.readErrorLog().entries().empty());
}

TEST(ZonedDeviceFaults, TransientSectorsRecoverDeterministically)
{
    ZonedDeviceOptions options;
    options.faults.transientRate = 1.0;
    options.faults.maxTransientRetries = 2;

    ZonedDevice device(swrLayout(), options);
    device.write({0, 16});
    const DeviceReadResult read = device.read({0, 16});
    // Every sector is transient and the budget (4 attempts) covers
    // the worst seeded requirement (2 retries): all recover.
    EXPECT_EQ(read.recoveredSectors, 16u);
    EXPECT_EQ(read.failedSectors, 0u);
    EXPECT_GE(read.retries, 16u);
    EXPECT_LE(read.retries, 32u);

    // Recovery episodes land in the error log with OK status.
    ASSERT_EQ(device.readErrorLog().entries().size(), 16u);
    for (const auto &entry : device.readErrorLog().entries()) {
        EXPECT_GE(entry.retries, 1u);
        EXPECT_TRUE(entry.status.ok());
    }

    // Same seed, same trace: byte-identical outcome.
    ZonedDevice twin(swrLayout(), options);
    twin.write({0, 16});
    const DeviceReadResult again = twin.read({0, 16});
    EXPECT_EQ(again.retries, read.retries);
    EXPECT_EQ(again.recoveredSectors, read.recoveredSectors);
}

TEST(ZonedDeviceFaults, TransientSectorsBeyondTheBudgetFail)
{
    // Seeded requirements of 1..6 retries against a 4-attempt
    // budget: a sector needing r < 4 retries recovers after r, the
    // rest fail after 3.
    ZonedDeviceOptions options;
    options.faults.transientRate = 1.0;
    options.faults.maxTransientRetries = 6;

    ZonedDevice device(swrLayout(), options);
    device.write({0, 64});
    const DeviceReadResult read = device.read({0, 64});
    EXPECT_EQ(read.failedSectors, 31u);
    EXPECT_EQ(read.recoveredSectors, 33u);
    EXPECT_EQ(read.retries, 156u);
    EXPECT_TRUE(read.degraded());

    std::uint64_t logged_retries = 0;
    ASSERT_EQ(device.readErrorLog().entries().size(), 64u);
    for (const auto &entry : device.readErrorLog().entries()) {
        logged_retries += entry.retries;
        if (entry.status.ok())
            continue;
        EXPECT_EQ(entry.retries, 3u);
        EXPECT_TRUE(isDeviceError(
            entry.status, DeviceErrc::TransientMediaError));
    }
    EXPECT_EQ(read.retries, logged_retries);
}

TEST(ZonedDeviceFaults, TransientClassificationIsOrderIndependent)
{
    // Transient faults are pure per-sector hashes, so reading the
    // same extents forward or backward costs identical totals.
    ZonedDeviceOptions options;
    options.faults.transientRate = 0.3;

    std::vector<SectorExtent> extents;
    for (std::uint64_t i = 0; i < 40; ++i)
        extents.push_back({i * 16, 16});

    ZonedDevice forward(swrLayout(), options);
    for (const auto &extent : extents)
        forward.write(extent);
    for (const auto &extent : extents)
        forward.read(extent);

    ZonedDevice backward(swrLayout(), options);
    for (const auto &extent : extents)
        backward.write(extent);
    for (auto it = extents.rbegin(); it != extents.rend(); ++it)
        backward.read(*it);

    EXPECT_EQ(forward.stats().readRetries,
              backward.stats().readRetries);
    EXPECT_EQ(forward.stats().recoveredSectors,
              backward.stats().recoveredSectors);
    EXPECT_EQ(forward.stats().failedReadSectors,
              backward.stats().failedReadSectors);
    EXPECT_GT(forward.stats().recoveredSectors, 0u);
}

TEST(ZonedDeviceFaults, GrownDefectDegradesZoneAndFailsFast)
{
    ZonedDeviceOptions options;
    options.faults.grownRate = 1.0;
    options.faults.offlineShare = 0.0; // always READ_ONLY

    ZonedDevice device(swrLayout(), options);
    device.write({0, 8});
    const DeviceReadResult read = device.read({0, 8});
    EXPECT_TRUE(read.degraded());
    EXPECT_EQ(read.failedSectors, 8u);
    EXPECT_EQ(read.recoveredSectors, 0u);
    EXPECT_GT(device.stats().grownDefects, 0u);
    EXPECT_EQ(device.zones().zone(0).condition,
              ZoneCondition::ReadOnly);

    // The first defect's log entry carries the typed DataLoss.
    ASSERT_FALSE(device.readErrorLog().entries().empty());
    const auto &entry = device.readErrorLog().entries().front();
    EXPECT_TRUE(
        isDeviceError(entry.status, DeviceErrc::GrownDefect));
    EXPECT_EQ(entry.status.code(), StatusCode::DataLoss);

    // Known defects fail fast: a re-read spends no retries.
    const std::uint64_t retries_before =
        device.stats().readRetries;
    const DeviceReadResult again = device.read({0, 8});
    EXPECT_EQ(device.stats().readRetries, retries_before);
    EXPECT_TRUE(again.degraded());

    // The READ_ONLY zone refuses writes as counted failures.
    const DeviceWriteResult refused = device.write({8, 8});
    EXPECT_EQ(refused.failedSectors, 8u);
}

TEST(ZonedDeviceFaults, OfflineZoneRefusesReadsOutright)
{
    ZonedDeviceOptions options;
    options.faults.grownRate = 1.0;
    options.faults.offlineShare = 1.0; // always OFFLINE

    ZonedDevice device(swrLayout(), options);
    device.write({0, 4});
    device.read({0, 1}); // discovers the defect, zone goes dark
    EXPECT_EQ(device.zones().zone(0).condition,
              ZoneCondition::Offline);

    const DeviceReadResult read = device.read({0, 16});
    EXPECT_EQ(read.failedSectors, 16u);
    EXPECT_EQ(read.retries, 0u); // no pointless recovery
}

TEST(ZonedDeviceFaults, WpDivergenceIsInjectedAndRecovered)
{
    ZonedDeviceOptions options;
    options.faults.wpDivergenceRate = 1.0;
    options.faults.wpDivergenceSectors = 8;

    ZonedDevice device(swrLayout(), options);
    device.write({0, 8});
    // The pointer diverged to 16; the host's next sequential write
    // at 8 is now a violation the device must realign around.
    EXPECT_EQ(device.zones().zone(0).writePointer, 16u);
    const DeviceWriteResult second = device.write({8, 8});
    EXPECT_EQ(second.wpViolations, 1u);
    EXPECT_EQ(second.failedSectors, 0u);
    EXPECT_GT(device.stats().wpDivergences, 0u);
    // Self-healing: after recovery (and the next divergence) the
    // pointer again sits a fixed distance past the host's.
    EXPECT_EQ(device.zones().zone(0).writePointer, 24u);
}

TEST(ZonedDeviceFaults, ErrorLogBoundsItsMemory)
{
    ZonedDeviceOptions options;
    options.faults.transientRate = 1.0;

    ZonedDevice device(swrLayout(), options);
    const std::uint64_t total =
        2 * ReadErrorLog::kMaxEntries + 10;
    device.write({0, total});
    device.read({0, total});
    EXPECT_EQ(device.readErrorLog().entries().size(),
              ReadErrorLog::kMaxEntries);
    EXPECT_EQ(device.readErrorLog().dropped(),
              total - ReadErrorLog::kMaxEntries);
}

TEST(ZonedDeviceFaults, ErrorLogCapIsConfigurable)
{
    ZonedDeviceOptions options;
    options.faults.transientRate = 1.0;
    options.errorLogCap = 16;

    ZonedDevice device(swrLayout(), options);
    device.write({0, 50});
    device.read({0, 50});
    EXPECT_EQ(device.readErrorLog().cap(), 16U);
    EXPECT_EQ(device.readErrorLog().entries().size(), 16U);
    EXPECT_EQ(device.readErrorLog().dropped(), 50U - 16U);
}

TEST(ZonedDeviceCrash, ScheduledPowerLossKillsTheDevice)
{
    ZonedDeviceOptions options;
    options.crash.crashAtWriteOp = 3;
    options.crash.seed = 0x11;

    ZonedDevice device(swrLayout(), options);
    device.write({0, 8});
    device.write({8, 8});
    EXPECT_FALSE(device.dead());
    try {
        device.write({16, 8});
        FAIL() << "expected StatusError from scheduled crash";
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code(), StatusCode::DataLoss);
    }
    EXPECT_TRUE(device.dead());
    EXPECT_EQ(device.stats().crashes, 1U);

    // A dead device refuses every further access, reads included.
    EXPECT_THROW(device.write({24, 8}), StatusError);
    EXPECT_THROW(device.read({0, 8}), StatusError);
}

TEST(ZonedDeviceCrash, TornWriteAdvancesPointerPartway)
{
    // The crashed op flushes a seeded prefix: the zone's write
    // pointer lands somewhere in [start of op, end of op] — never
    // beyond, and deterministically for a fixed seed.
    const auto crashed_wp = [](std::uint64_t seed) {
        ZonedDeviceOptions options;
        options.crash.crashAtWriteOp = 1;
        options.crash.seed = seed;
        ZonedDevice device(swrLayout(), options);
        EXPECT_THROW(device.write({0, 32}), StatusError);
        return device.zones().zone(0).writePointer;
    };

    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 99ULL}) {
        const std::uint64_t wp = crashed_wp(seed);
        EXPECT_LE(wp, 32U) << "seed " << seed;
        EXPECT_EQ(wp, crashed_wp(seed)) << "seed " << seed;
    }
}

TEST(ZonedDeviceCrash, UnarmedScheduleNeverFires)
{
    ZonedDeviceOptions options;
    ASSERT_EQ(options.crash.crashAtWriteOp, 0U);

    ZonedDevice device(swrLayout(), options);
    for (std::uint64_t i = 0; i < 100; ++i)
        device.write({i * 8, 8});
    EXPECT_FALSE(device.dead());
    EXPECT_EQ(device.stats().crashes, 0U);
}

} // namespace
} // namespace logseek::disk
