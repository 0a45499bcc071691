/**
 * @file
 * Zoned block device front: sequential-write policy enforcement
 * plus seeded, deterministic media-fault injection.
 *
 * ZonedDevice is the narrow seam between the translation layers and
 * the zone state machine: every media access the replay performs is
 * mirrored through read()/write(), so log appends advance real
 * write pointers and reads traverse (possibly faulty) media. Faults
 * follow util/fault's discipline — pure and seeded. Whether a
 * sector is bad is a hash of (seed, sector), never a draw from a
 * shared stream, so the fault set is identical whatever order the
 * sweep visits cells in: equal seeds give equal defect maps across
 * --jobs 1 / --jobs 4.
 *
 * Failure semantics mirror a real drive's: transient bad sectors
 * recover after a bounded number of retried reads; grown defects
 * never recover and flip their zone READ_ONLY or OFFLINE; reads
 * that exhaust the retry budget surface as counted degraded
 * results — typed partial failures the replay accounts for instead
 * of aborting the cell.
 */

#ifndef LOGSEEK_DISK_ZONED_DEVICE_H
#define LOGSEEK_DISK_ZONED_DEVICE_H

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "disk/zone.h"
#include "telemetry/metrics.h"
#include "util/extent.h"
#include "util/status.h"

namespace logseek::disk
{

/**
 * Seeded media-fault policy. All rates are per-sector (or per
 * write op for divergence) probabilities in [0, 1]; with every
 * rate at zero the device never touches the fault path.
 */
struct DeviceFaultConfig
{
    /** Seed of the defect map; equal seeds, equal faults. */
    std::uint64_t seed = 0xbad5ec70ULL;

    /** P(sector needs retries before a read succeeds). */
    double transientRate = 0.0;

    /** A transient sector needs 1..maxTransientRetries retries
     *  (seeded per sector); it recovers only when they fit the
     *  ZonedDevice::kReadAttempts budget. */
    int maxTransientRetries = 2;

    /** P(sector is a persistent grown defect). */
    double grownRate = 0.0;

    /** Share of grown defects that take the whole zone OFFLINE
     *  (the rest flip it READ_ONLY). */
    double offlineShare = 0.25;

    /** P(a media write op is followed by write-pointer
     *  divergence: the device pointer drifts ahead of the
     *  host's). */
    double wpDivergenceRate = 0.0;

    /** How far a divergence moves the pointer. */
    SectorCount wpDivergenceSectors = 8;

    /** True when any fault class is armed. */
    bool
    any() const
    {
        return transientRate > 0.0 || grownRate > 0.0 ||
               wpDivergenceRate > 0.0;
    }
};

/**
 * Seeded power-loss schedule. When armed, the crashAtWriteOp-th
 * media write op kills the device mid-transfer: a seeded prefix of
 * the extent reaches the media (so the zone write pointer stops
 * partway through the op — a torn tail, with the host's view of the
 * pointer now stale), the op throws StatusError(POWER_LOSS →
 * DataLoss), and every subsequent access fails the same way until
 * the host builds a fresh device and remounts. Like the fault
 * model, the torn length is a pure hash of (seed, op), so equal
 * seeds crash identically across --jobs.
 */
struct CrashSchedule
{
    /** 1-based media-write-op index that dies; 0 = never. */
    std::uint64_t crashAtWriteOp = 0;

    /** Seed of the torn-tail length draw. */
    std::uint64_t seed = 0x70776c055ULL;

    bool armed() const { return crashAtWriteOp > 0; }
};

/** Full device configuration (geometry comes from ZoneLayout). */
struct ZonedDeviceOptions
{
    /** Zone size in bytes; 0 lets the replay engine pick a size
     *  matched to the translation layer's structure. */
    std::uint64_t zoneBytes = 0;

    /** Open-zone limit. */
    std::uint32_t maxOpenZones = 8;

    /** Media-fault injection policy. */
    DeviceFaultConfig faults;

    /** Power-loss schedule; disarmed by default. */
    CrashSchedule crash;

    /**
     * Bound of the read-error log (entries kept before counting
     * drops); must be >= 1. Defaults to ReadErrorLog::kMaxEntries
     * so existing configurations keep their capping behavior.
     */
    std::size_t errorLogCap = 256;
};

/**
 * One recovery episode, in the spirit of a drive's SMART error
 * log: which sector, how many retries it took, and the final
 * status (OK after recovery, or the typed failure).
 */
struct ReadErrorEntry
{
    std::uint64_t sector = 0;
    std::uint32_t retries = 0;
    Status status;
};

/**
 * Bounded per-device log of read-error episodes. Keeps the first
 * `cap` entries (the interesting ones for triage) and counts the
 * rest, so a high fault rate cannot balloon memory. The drop count
 * is surfaced in SimResult/reports rather than silently capping.
 */
class ReadErrorLog
{
  public:
    /** Default bound (ZonedDeviceOptions::errorLogCap overrides). */
    static constexpr std::size_t kMaxEntries = 256;

    explicit ReadErrorLog(std::size_t cap = kMaxEntries)
        : cap_(cap == 0 ? 1 : cap)
    {
    }

    void
    append(ReadErrorEntry entry)
    {
        if (entries_.size() < cap_)
            entries_.push_back(std::move(entry));
        else
            ++dropped_;
    }

    const std::deque<ReadErrorEntry> &entries() const
    {
        return entries_;
    }

    std::size_t cap() const { return cap_; }

    std::uint64_t dropped() const { return dropped_; }

  private:
    std::size_t cap_;
    std::deque<ReadErrorEntry> entries_;
    std::uint64_t dropped_ = 0;
};

/** What one device read cost beyond the transfer itself. */
struct DeviceReadResult
{
    /** Retry attempts spent on recovery. */
    std::uint32_t retries = 0;

    /** Sectors recovered after at least one retry. */
    std::uint32_t recoveredSectors = 0;

    /** Sectors unrecovered after the budget (or offline). */
    std::uint32_t failedSectors = 0;

    /** True when any sector was lost: a typed partial failure. */
    bool degraded() const { return failedSectors > 0; }
};

/** What one device write did to the zone machine. */
struct DeviceWriteResult
{
    /** Zone resets performed (explicit rewinds by the log). */
    std::uint32_t zoneResets = 0;

    /** Write-pointer violations recovered by realignment. */
    std::uint32_t wpViolations = 0;

    /** Out-of-policy writes absorbed by SWP zones. */
    std::uint32_t outOfPolicy = 0;

    /** Sectors refused outright (READ_ONLY/OFFLINE zones). */
    std::uint32_t failedSectors = 0;
};

/** Lifetime totals of one device (mirrors SimResult fields). */
struct DeviceStats
{
    std::uint64_t readRetries = 0;
    std::uint64_t recoveredSectors = 0;
    std::uint64_t failedReadSectors = 0;
    std::uint64_t degradedReads = 0;
    std::uint64_t failedWriteSectors = 0;
    std::uint64_t zoneResets = 0;
    std::uint64_t wpViolations = 0;
    std::uint64_t outOfPolicyWrites = 0;
    std::uint64_t grownDefects = 0;
    std::uint64_t wpDivergences = 0;
    std::uint64_t crashes = 0;
};

/**
 * The read/write front over a ZoneSet. Accesses may span any
 * number of zones; the device splits them at zone boundaries and
 * applies per-zone policy. Policy violations and media errors are
 * absorbed into counted, typed results — the only exception a
 * device op ever throws is StatusError(DataLoss) when the seeded
 * CrashSchedule kills the device (power loss is not a partial
 * result: the run is over).
 * Not thread-safe: one device belongs to one replay.
 */
class ZonedDevice
{
  public:
    /**
     * Read attempts per faulty sector, the first included. A
     * transient sector needing r retries recovers after r of them
     * when r < kReadAttempts and fails after kReadAttempts - 1
     * otherwise; a grown defect fails after kReadAttempts - 1.
     */
    static constexpr std::uint32_t kReadAttempts = 4;

    ZonedDevice(const ZoneLayout &layout,
                const ZonedDeviceOptions &options);

    /** Pre-fill [0, end_sector): the identity region that exists
     *  before the replay starts. */
    void fillTo(std::uint64_t end_sector);

    /**
     * A media read of `extent`. Traverses the fault model sector
     * by sector; transient sectors are retried, and sectors that
     * exhaust the budget (or hit grown defects / offline zones)
     * are counted as failed rather than thrown. With no read fault
     * armed nothing can fail, and the read only checks that the
     * device is alive and covers the extent.
     */
    DeviceReadResult read(const SectorExtent &extent);

    /**
     * A media write of `extent`. Enforces each zone's write
     * policy: a write landing exactly at the start of a non-empty
     * sequential zone is a RESET + write (how a log layer reuses a
     * reclaimed segment), other violations are recovered by
     * realigning the device pointer to the host's — both counted.
     */
    DeviceWriteResult write(const SectorExtent &extent);

    const ZoneSet &zones() const { return zones_; }
    const ZonedDeviceOptions &options() const { return options_; }
    const ReadErrorLog &readErrorLog() const { return errorLog_; }
    const DeviceStats &stats() const { return stats_; }

    /** True once a scheduled power loss fired: every further
     *  access throws the POWER_LOSS status. */
    bool dead() const { return dead_; }

    /** Publish the zone-condition census as telemetry gauges
     *  (device_zones{condition=...}). */
    void publishZoneGauges() const;

  private:
    /** Per-sector fault classification (pure, seeded). */
    enum class SectorFault : std::uint8_t
    {
        Good,
        Transient,
        Grown,
    };

    SectorFault classifySector(std::uint64_t sector) const;

    /** Seeded retries a transient sector needs (>= 1). */
    std::uint32_t requiredRetries(std::uint64_t sector) const;

    /** True when this grown defect takes the zone OFFLINE. */
    bool defectGoesOffline(std::uint64_t sector) const;

    /** Handle a newly discovered grown defect in zone `index`. */
    void discoverDefect(std::size_t index, std::uint64_t sector);

    DeviceReadResult readPiece(std::size_t index,
                               const SectorExtent &piece);
    DeviceWriteResult writePiece(std::size_t index,
                                 const SectorExtent &piece);

    ZonedDeviceOptions options_;
    ZoneSet zones_;

    /** Grown defects already discovered: later reads fail fast. */
    std::unordered_set<std::uint64_t> knownDefects_;

    /** Throw POWER_LOSS if the scheduled crash already fired. */
    void checkAlive() const;

    /** Media write ops so far (divergence and crash scheduling). */
    std::uint64_t writeOps_ = 0;

    /** Power already lost; set by the crash schedule. */
    bool dead_ = false;

    ReadErrorLog errorLog_;
    DeviceStats stats_;

    // Telemetry handles, resolved once at construction.
    telemetry::Counter *readRetries_;
    telemetry::Counter *zoneResets_;
    telemetry::Counter *wpViolations_;
    telemetry::Counter *mediaErrorsTransient_;
    telemetry::Counter *mediaErrorsGrown_;
    telemetry::Counter *crashes_;
};

} // namespace logseek::disk

#endif // LOGSEEK_DISK_ZONED_DEVICE_H
