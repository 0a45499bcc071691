#include "zone.h"

#include <algorithm>

#include "util/logging.h"

namespace logseek::disk
{

const char *
toString(ZoneType type)
{
    switch (type) {
      case ZoneType::Conventional: return "conv";
      case ZoneType::SequentialWritePreferred: return "swp";
      case ZoneType::SequentialWriteRequired: return "swr";
    }
    return "unknown";
}

const char *
toString(ZoneCondition condition)
{
    switch (condition) {
      case ZoneCondition::Empty: return "empty";
      case ZoneCondition::ImplicitOpen: return "implicit-open";
      case ZoneCondition::Closed: return "closed";
      case ZoneCondition::Full: return "full";
      case ZoneCondition::ReadOnly: return "read-only";
      case ZoneCondition::Offline: return "offline";
    }
    return "unknown";
}

const char *
toString(DeviceErrc errc)
{
    switch (errc) {
      case DeviceErrc::WritePointerViolation:
        return "WP_VIOLATION";
      case DeviceErrc::ZoneReadOnly: return "ZONE_READ_ONLY";
      case DeviceErrc::ZoneOffline: return "ZONE_OFFLINE";
      case DeviceErrc::TransientMediaError:
        return "TRANSIENT_MEDIA_ERROR";
      case DeviceErrc::GrownDefect: return "GROWN_DEFECT";
      case DeviceErrc::PowerLoss: return "POWER_LOSS";
    }
    return "UNKNOWN";
}

StatusCode
statusCodeOf(DeviceErrc errc)
{
    switch (errc) {
      case DeviceErrc::TransientMediaError:
        return StatusCode::Unavailable;
      case DeviceErrc::GrownDefect:
      case DeviceErrc::ZoneOffline:
      case DeviceErrc::PowerLoss:
        return StatusCode::DataLoss;
      case DeviceErrc::WritePointerViolation:
      case DeviceErrc::ZoneReadOnly:
        return StatusCode::FailedPrecondition;
    }
    return StatusCode::Internal;
}

namespace
{

std::string
errcTag(DeviceErrc errc)
{
    std::string tag("[");
    tag.append(toString(errc));
    tag.append("]");
    return tag;
}

} // namespace

Status
deviceError(DeviceErrc errc, const std::string &message)
{
    std::string text = errcTag(errc);
    text.append(" ");
    text.append(message);
    return Status(statusCodeOf(errc), std::move(text));
}

bool
isDeviceError(const Status &status, DeviceErrc errc)
{
    if (status.code() != statusCodeOf(errc))
        return false;
    return status.message().rfind(errcTag(errc), 0) == 0;
}

namespace
{

std::string
zoneContext(std::size_t index, const Zone &zone)
{
    return "zone " + std::to_string(index) + " (" +
           std::string(toString(zone.type)) + ", " +
           std::string(toString(zone.condition)) + ")";
}

/** Errors shared by every op touching a degraded zone. */
Status
degradedZoneError(std::size_t index, const Zone &zone,
                  const char *op)
{
    if (zone.condition == ZoneCondition::Offline)
        return deviceError(DeviceErrc::ZoneOffline,
                           zoneContext(index, zone) + ": " + op +
                               " refused");
    return deviceError(DeviceErrc::ZoneReadOnly,
                       zoneContext(index, zone) + ": " + op +
                           " refused");
}

} // namespace

ZoneSet::ZoneSet(const ZoneLayout &layout) : layout_(layout)
{
    panicIf(layout_.zoneSectors == 0,
            "ZoneSet: zone size must be positive");
    panicIf(layout_.maxOpenZones == 0,
            "ZoneSet: open-zone limit must be positive");
}

const Zone &
ZoneSet::zone(std::size_t index) const
{
    panicIf(index >= zones_.size(), "ZoneSet: zone out of range");
    return zones_[index];
}

Zone &
ZoneSet::zoneAt(std::size_t index)
{
    panicIf(index >= zones_.size(), "ZoneSet: zone out of range");
    return zones_[index];
}

std::size_t
ZoneSet::zoneIndexOf(std::uint64_t sector)
{
    ensureCovers(sector + 1);
    if (layout_.anchorSector > 0) {
        if (sector < layout_.anchorSector)
            return 0;
        return 1 + static_cast<std::size_t>(
                       (sector - layout_.anchorSector) /
                       layout_.zoneSectors);
    }
    return static_cast<std::size_t>(sector / layout_.zoneSectors);
}

void
ZoneSet::ensureCovers(std::uint64_t end_sector)
{
    while (zones_.empty() ? end_sector > 0
                          : zones_.back().end() < end_sector) {
        Zone zone;
        if (zones_.empty() && layout_.anchorSector > 0) {
            // The leading anchor zone covering the pre-existing
            // identity region.
            zone.start = 0;
            zone.capacity = layout_.anchorSector;
        } else {
            zone.start =
                zones_.empty() ? 0 : zones_.back().end();
            zone.capacity = layout_.zoneSectors;
        }
        zone.writePointer = zone.start;
        zone.type = layout_.type;
        zones_.push_back(zone);
    }
}

void
ZoneSet::fillTo(std::uint64_t end_sector)
{
    if (end_sector == 0)
        return;
    ensureCovers(end_sector);
    for (auto &zone : zones_) {
        if (zone.type == ZoneType::Conventional ||
            zone.start >= end_sector)
            break;
        if (zone.end() <= end_sector) {
            zone.writePointer = zone.end();
            setCondition(zone, ZoneCondition::Full);
        } else {
            zone.writePointer = end_sector;
            // CLOSED rather than open: pre-existing data must not
            // consume open-zone slots the replay needs.
            setCondition(zone, zone.writePointer > zone.start
                                   ? ZoneCondition::Closed
                                   : ZoneCondition::Empty);
        }
    }
}

void
ZoneSet::setCondition(Zone &zone, ZoneCondition next)
{
    const bool was_open = zone.open();
    zone.condition = next;
    if (!was_open && zone.open()) {
        ++openCount_;
        zone.openStamp = ++clock_;
    } else if (was_open && !zone.open()) {
        --openCount_;
    }
}

void
ZoneSet::acquireOpenSlot()
{
    if (openCount_ < layout_.maxOpenZones)
        return;
    // At the limit: close the least recently opened zone, the way
    // a drive's zone resources behave. Every open zone is
    // implicitly open, so there always is one.
    Zone *victim = nullptr;
    for (auto &zone : zones_) {
        if (zone.condition != ZoneCondition::ImplicitOpen)
            continue;
        if (victim == nullptr ||
            zone.openStamp < victim->openStamp)
            victim = &zone;
    }
    setCondition(*victim,
                 victim->writePointer > victim->start
                     ? ZoneCondition::Closed
                     : ZoneCondition::Empty);
    ++implicitCloses_;
}

Status
ZoneSet::reset(std::size_t index)
{
    Zone &zone = zoneAt(index);
    panicIf(zone.type == ZoneType::Conventional,
            "ZoneSet::reset: a conventional zone has no write "
            "pointer");
    if (zone.condition == ZoneCondition::ReadOnly ||
        zone.condition == ZoneCondition::Offline)
        return degradedZoneError(index, zone, "reset");
    zone.writePointer = zone.start;
    setCondition(zone, ZoneCondition::Empty);
    ++resets_;
    return Status();
}

Status
ZoneSet::write(std::size_t index, const SectorExtent &piece)
{
    Zone &zone = zoneAt(index);
    panicIf(piece.empty() || !zone.extent().covers(piece),
            "ZoneSet::write: piece must be a non-empty sub-extent "
            "of the zone");
    switch (zone.condition) {
    case ZoneCondition::ReadOnly:
    case ZoneCondition::Offline:
        return degradedZoneError(index, zone, "write");
    default:
        break;
    }
    if (zone.type == ZoneType::Conventional)
        return Status(); // random writes in place, no pointer

    const bool sequential = piece.start == zone.writePointer;
    if (zone.type == ZoneType::SequentialWriteRequired) {
        if (zone.condition == ZoneCondition::Full)
            return deviceError(DeviceErrc::WritePointerViolation,
                               zoneContext(index, zone) +
                                   ": write into a full zone");
        if (!sequential)
            return deviceError(
                DeviceErrc::WritePointerViolation,
                zoneContext(index, zone) + ": write at sector " +
                    std::to_string(piece.start) +
                    ", write pointer at " +
                    std::to_string(zone.writePointer));
    }

    if (!zone.open()) {
        acquireOpenSlot();
        setCondition(zone, ZoneCondition::ImplicitOpen);
    } else {
        zone.openStamp = ++clock_;
    }

    if (sequential) {
        zone.writePointer = piece.end();
    } else {
        // SWP: absorbed out of policy; the pointer tracks the
        // furthest written sector.
        ++outOfPolicyWrites_;
        zone.writePointer =
            std::max(zone.writePointer, piece.end());
    }
    if (zone.writePointer >= zone.end())
        setCondition(zone, ZoneCondition::Full);
    return Status();
}

Status
ZoneSet::checkRead(std::size_t index,
                   const SectorExtent &piece) const
{
    const Zone &z = zone(index);
    panicIf(piece.empty() || !z.extent().covers(piece),
            "ZoneSet::checkRead: piece must be a non-empty "
            "sub-extent of the zone");
    if (z.condition == ZoneCondition::Offline)
        return deviceError(DeviceErrc::ZoneOffline,
                           zoneContext(index, z) +
                               ": read refused");
    return Status();
}

void
ZoneSet::forceCondition(std::size_t index, ZoneCondition condition)
{
    setCondition(zoneAt(index), condition);
}

void
ZoneSet::moveWritePointer(std::size_t index, std::uint64_t sector)
{
    Zone &zone = zoneAt(index);
    zone.writePointer =
        std::clamp(sector, zone.start, zone.end());
    if (zone.condition == ZoneCondition::Full &&
        zone.writePointer < zone.end())
        setCondition(zone, ZoneCondition::Closed);
}

std::array<std::uint64_t, kZoneConditionCount>
ZoneSet::conditionCensus() const
{
    std::array<std::uint64_t, kZoneConditionCount> census{};
    for (const auto &zone : zones_)
        ++census[static_cast<std::size_t>(zone.condition)];
    return census;
}

} // namespace logseek::disk
