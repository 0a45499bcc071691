/**
 * @file
 * SMR zone state machine (ZBC-style).
 *
 * Real SMR drives are not a flat address space: they expose zones
 * with a type (conventional, sequential-write-preferred,
 * sequential-write-required), a condition (EMPTY, IMPLICIT_OPEN,
 * CLOSED, FULL, READ_ONLY, OFFLINE), a per-zone write pointer, and
 * a bound on how many zones may be open at once. ZoneSet models
 * the part of that contract the translation layers drive: writes,
 * which open zones implicitly, and the write-pointer reset a log
 * issues when it reuses a zone. Each is checked against the
 * current condition, and each illegal pairing returns a typed
 * Status from the device error taxonomy below — never a crash, so
 * fault sweeps can drive the machine through every corner.
 *
 * The set covers [0, ∞) in uniform zones and grows on demand, which
 * matches the paper's infinite-disk model: the log-structured
 * frontier can march forever and always finds a zone under it.
 */

#ifndef LOGSEEK_DISK_ZONE_H
#define LOGSEEK_DISK_ZONE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/extent.h"
#include "util/status.h"
#include "util/units.h"

namespace logseek::disk
{

/** ZBC zone types. */
enum class ZoneType : std::uint8_t
{
    /** Random writes allowed; no write pointer is maintained. */
    Conventional,

    /** Sequential writes preferred; out-of-policy writes succeed
     *  but are counted (host-aware SMR). */
    SequentialWritePreferred,

    /** Writes must land exactly at the write pointer (host-managed
     *  SMR); anything else is a typed error. */
    SequentialWriteRequired,
};

/** ZBC zone conditions. EXPLICIT_OPEN is left out: no layer issues
 *  OPEN ZONE, so a zone opens only implicitly, by a write. */
enum class ZoneCondition : std::uint8_t
{
    Empty = 0,
    ImplicitOpen,
    Closed,
    Full,
    ReadOnly, ///< grown defect: data readable, writes refused
    Offline,  ///< media gone: reads and writes both refused
};

/** Number of ZoneCondition values (census array size). */
constexpr std::size_t kZoneConditionCount = 6;

/** Printable name of a ZoneType ("conv", "swp", "swr"). */
const char *toString(ZoneType type);

/** Printable name of a ZoneCondition ("empty", "full", ...). */
const char *toString(ZoneCondition condition);

/**
 * The device error taxonomy, layered on util/status.h: each value
 * maps to a canonical StatusCode chosen so the existing retry and
 * sweep machinery classifies it correctly (only transient media
 * errors are retryable).
 */
enum class DeviceErrc : std::uint8_t
{
    /** A write missed the zone's write pointer (SWR). */
    WritePointerViolation,

    /** A write touched a READ_ONLY zone (grown defect). */
    ZoneReadOnly,

    /** Any I/O touched an OFFLINE zone. */
    ZoneOffline,

    /** A transient media error; the same read may succeed on
     *  retry. */
    TransientMediaError,

    /** A persistent grown defect; retries cannot help. */
    GrownDefect,

    /** The device lost power mid-operation; everything after the
     *  flushed prefix is gone and the device is dead until it is
     *  re-opened (a new ZonedDevice) and the host remounts. */
    PowerLoss,
};

/** Printable name of a DeviceErrc ("WP_VIOLATION", ...). */
const char *toString(DeviceErrc errc);

/**
 * The canonical StatusCode a DeviceErrc surfaces as:
 * TransientMediaError → Unavailable, GrownDefect / ZoneOffline /
 * PowerLoss → DataLoss, everything else → FailedPrecondition.
 */
StatusCode statusCodeOf(DeviceErrc errc);

/** A typed device error: "[WP_VIOLATION] zone 3: ..." */
Status deviceError(DeviceErrc errc, const std::string &message);

/** True when the status carries the given taxonomy tag. */
bool isDeviceError(const Status &status, DeviceErrc errc);

/** One zone's state. Sectors are absolute device addresses. */
struct Zone
{
    std::uint64_t start = 0;
    SectorCount capacity = 0;
    std::uint64_t writePointer = 0;
    ZoneType type = ZoneType::SequentialWriteRequired;
    ZoneCondition condition = ZoneCondition::Empty;

    /** Monotonic stamp of the last open (LRU implicit close). */
    std::uint64_t openStamp = 0;

    /** One past the last sector of the zone. */
    std::uint64_t end() const { return start + capacity; }

    /** The zone as a sector extent. */
    SectorExtent extent() const { return {start, capacity}; }

    bool
    open() const
    {
        return condition == ZoneCondition::ImplicitOpen;
    }
};

/** Geometry and policy of a zone set. */
struct ZoneLayout
{
    /** Uniform zone size; must be > 0. */
    SectorCount zoneSectors = bytesToSectors(256ULL << 20);

    /** Type applied to every zone. */
    ZoneType type = ZoneType::SequentialWriteRequired;

    /** Max zones in IMPLICIT_OPEN at once. */
    std::uint32_t maxOpenZones = 8;

    /**
     * Sector where the uniform grid begins. When > 0, one leading
     * zone of exactly this capacity covers [0, anchorSector) and
     * zones of zoneSectors follow from there. Lets the grid line
     * up with a translation layer's log region (which starts at
     * the end of the identity region, rarely a zone multiple), so
     * segment reuse lands on zone starts instead of mid-zone.
     */
    std::uint64_t anchorSector = 0;
};

/**
 * The zone state machine. Writes and resets return a typed Status
 * and leave the machine unchanged on error, so a caller can probe
 * illegal (type × condition × op) pairs without corrupting state;
 * only a reset of a conventional zone, a caller bug, panics. Not
 * thread-safe: one ZoneSet belongs to one replay.
 */
class ZoneSet
{
  public:
    explicit ZoneSet(const ZoneLayout &layout);

    const ZoneLayout &layout() const { return layout_; }
    std::size_t size() const { return zones_.size(); }
    const Zone &zone(std::size_t index) const;

    /** Index of the zone containing `sector`, growing the set so
     *  the zone exists. */
    std::size_t zoneIndexOf(std::uint64_t sector);

    /** Grow the set until [0, end_sector) is covered. */
    void ensureCovers(std::uint64_t end_sector);

    /**
     * Mark [0, end_sector) as already written (the identity region
     * that exists before the replay starts): covered sequential
     * zones become FULL, a partially covered one CLOSED with its
     * write pointer at end_sector. Conventional zones have no write
     * pointer and are untouched.
     */
    void fillTo(std::uint64_t end_sector);

    /**
     * ZBC RESET WRITE POINTER: back to EMPTY. A conventional zone
     * has no write pointer, so resetting one panics.
     */
    Status reset(std::size_t index);

    /**
     * A media write of `piece`, which must lie entirely inside the
     * zone (callers split at zone boundaries). Enforces the zone
     * type's write policy, implicitly opening the zone as needed
     * and, at the open limit, implicitly closing the least recently
     * opened zone.
     */
    Status write(std::size_t index, const SectorExtent &piece);

    /** Policy check for a read of `piece` (OFFLINE zones refuse). */
    Status checkRead(std::size_t index,
                     const SectorExtent &piece) const;

    /**
     * Fault injection: force a condition (grown defect flipping a
     * zone READ_ONLY/OFFLINE). Open-slot accounting stays correct.
     */
    void forceCondition(std::size_t index, ZoneCondition condition);

    /**
     * Fault injection / recovery: move the write pointer to
     * `sector` (clamped into the zone). A FULL zone whose pointer
     * moves back becomes CLOSED.
     */
    void moveWritePointer(std::size_t index, std::uint64_t sector);

    /** Zones currently IMPLICIT_OPEN. */
    std::uint32_t openZones() const { return openCount_; }

    /** Successful reset ops over the set's lifetime. */
    std::uint64_t resets() const { return resets_; }

    /** Implicit closes forced by the open-zone limit. */
    std::uint64_t implicitCloses() const { return implicitCloses_; }

    /** Out-of-policy (non-sequential) writes absorbed by SWP
     *  zones. */
    std::uint64_t outOfPolicyWrites() const
    {
        return outOfPolicyWrites_;
    }

    /** Zone count per condition, indexed by ZoneCondition. */
    std::array<std::uint64_t, kZoneConditionCount>
    conditionCensus() const;

  private:
    Zone &zoneAt(std::size_t index);

    /** Move a zone to `next`, keeping openCount_ consistent. */
    void setCondition(Zone &zone, ZoneCondition next);

    /** Take an open slot, implicitly closing the least recently
     *  opened zone when the set is at its limit. */
    void acquireOpenSlot();

    ZoneLayout layout_;
    std::vector<Zone> zones_;
    std::uint32_t openCount_ = 0;
    std::uint64_t clock_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t implicitCloses_ = 0;
    std::uint64_t outOfPolicyWrites_ = 0;
};

} // namespace logseek::disk

#endif // LOGSEEK_DISK_ZONE_H
