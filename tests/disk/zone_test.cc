/**
 * @file
 * ZoneSet state-machine tests.
 *
 * The core is an exhaustive table over (zone type × condition × op):
 * every legal pair must succeed and land in the documented next
 * condition, every illegal pair must return the documented typed
 * error AND leave the zone unchanged, and a reset of a conventional
 * zone (which has no write pointer) must panic. The expectations are
 * written from the ZBC-style contract in disk/zone.h, not read back
 * from the implementation, so a drifting transition breaks a named
 * row here.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "disk/zone.h"
#include "util/logging.h"

namespace logseek::disk
{
namespace
{

constexpr SectorCount kZoneSectors = 128;

/** Every operation the machine accepts. */
enum class Op
{
    Reset,
    WriteAtWp,  ///< sequential: piece starts at the write pointer
    WriteOffWp, ///< non-sequential: piece starts mid-zone, off wp
    Read,
};

const char *
toString(Op op)
{
    switch (op) {
      case Op::Reset: return "reset";
      case Op::WriteAtWp: return "write-at-wp";
      case Op::WriteOffWp: return "write-off-wp";
      case Op::Read: return "read";
    }
    return "?";
}

constexpr Op kAllOps[] = {
    Op::Reset, Op::WriteAtWp, Op::WriteOffWp, Op::Read,
};

constexpr ZoneType kAllTypes[] = {
    ZoneType::Conventional,
    ZoneType::SequentialWritePreferred,
    ZoneType::SequentialWriteRequired,
};

constexpr ZoneCondition kAllConditions[] = {
    ZoneCondition::Empty,    ZoneCondition::ImplicitOpen,
    ZoneCondition::Closed,   ZoneCondition::Full,
    ZoneCondition::ReadOnly, ZoneCondition::Offline,
};

/** What one (type, condition, op) cell must do. */
struct Expect
{
    bool ok = false;
    /** The op is a programming error: it panics. */
    bool panics = false;
    /** Taxonomy tag when !ok. */
    DeviceErrc errc = DeviceErrc::WritePointerViolation;
    /** Condition after a successful op. */
    ZoneCondition after = ZoneCondition::Empty;
};

Expect
pass(ZoneCondition after)
{
    return {true, false, DeviceErrc::WritePointerViolation, after};
}

Expect
fail(DeviceErrc errc)
{
    return {false, false, errc, ZoneCondition::Empty};
}

Expect
panics()
{
    return {false, true, DeviceErrc::WritePointerViolation,
            ZoneCondition::Empty};
}

/** The degraded-zone error every op shares. */
Expect
degraded(ZoneCondition condition)
{
    return fail(condition == ZoneCondition::Offline
                    ? DeviceErrc::ZoneOffline
                    : DeviceErrc::ZoneReadOnly);
}

/** The contract, restated as data. */
Expect
expectedFor(ZoneType type, ZoneCondition condition, Op op)
{
    const bool ro_or_offline =
        condition == ZoneCondition::ReadOnly ||
        condition == ZoneCondition::Offline;

    // Reads are type-independent: only OFFLINE refuses.
    if (op == Op::Read) {
        if (condition == ZoneCondition::Offline)
            return fail(DeviceErrc::ZoneOffline);
        return pass(condition);
    }

    // Conventional zones take writes anywhere and have no write
    // pointer to reset: resetting one is a caller bug.
    if (type == ZoneType::Conventional) {
        if (op == Op::Reset)
            return panics();
        if (ro_or_offline)
            return degraded(condition);
        return pass(condition);
    }

    switch (op) {
    case Op::Reset:
        if (ro_or_offline)
            return degraded(condition);
        return pass(ZoneCondition::Empty);
    case Op::WriteAtWp:
        if (ro_or_offline)
            return degraded(condition);
        if (condition == ZoneCondition::Full) {
            // wp == end: no sequential position exists, so the
            // harness writes mid-zone. SWR refuses, SWP absorbs.
            if (type == ZoneType::SequentialWriteRequired)
                return fail(DeviceErrc::WritePointerViolation);
            return pass(ZoneCondition::Full);
        }
        // A sequential write implicitly opens.
        return pass(ZoneCondition::ImplicitOpen);
    case Op::WriteOffWp:
        if (ro_or_offline)
            return degraded(condition);
        if (type == ZoneType::SequentialWriteRequired)
            return fail(DeviceErrc::WritePointerViolation);
        // SWP absorbs out-of-policy writes (counted).
        if (condition == ZoneCondition::Full)
            return pass(ZoneCondition::Full);
        return pass(ZoneCondition::ImplicitOpen);
    case Op::Read:
        break;
    }
    ADD_FAILURE() << "unhandled op";
    return {};
}

/** A one-zone set with zone 0 forced into `condition`. */
ZoneSet
makeZone(ZoneType type, ZoneCondition condition)
{
    ZoneLayout layout;
    layout.zoneSectors = kZoneSectors;
    layout.type = type;
    layout.maxOpenZones = 4;
    ZoneSet zones(layout);
    zones.ensureCovers(kZoneSectors);
    if (type != ZoneType::Conventional) {
        if (condition == ZoneCondition::Full)
            zones.moveWritePointer(0, kZoneSectors);
        else if (condition != ZoneCondition::Empty)
            zones.moveWritePointer(0, 4);
    }
    zones.forceCondition(0, condition);
    return zones;
}

Status
applyOp(ZoneSet &zones, Op op)
{
    const Zone &zone = zones.zone(0);
    switch (op) {
      case Op::Reset: return zones.reset(0);
      case Op::WriteAtWp: {
        // At wp when one exists; mid-zone when the zone is full
        // (wp == end leaves no sequential position).
        const std::uint64_t start =
            zone.writePointer < zone.end() ? zone.writePointer
                                           : zone.start + 64;
        return zones.write(0, {start, 8});
      }
      case Op::WriteOffWp: return zones.write(0, {64, 8});
      case Op::Read: return zones.checkRead(0, {4, 8});
    }
    return internalError("unhandled op");
}

TEST(ZoneSetTransitions, ExhaustiveTypeConditionOpTable)
{
    for (ZoneType type : kAllTypes) {
        for (ZoneCondition condition : kAllConditions) {
            for (Op op : kAllOps) {
                SCOPED_TRACE(std::string(toString(type)) + " / " +
                             toString(condition) + " / " +
                             toString(op));
                ZoneSet zones = makeZone(type, condition);
                const std::uint64_t wp_before =
                    zones.zone(0).writePointer;
                const Expect expect =
                    expectedFor(type, condition, op);
                if (expect.panics) {
                    EXPECT_THROW((void)applyOp(zones, op),
                                 PanicError);
                    EXPECT_EQ(zones.zone(0).condition, condition);
                    EXPECT_EQ(zones.zone(0).writePointer,
                              wp_before);
                    continue;
                }
                const Status status = applyOp(zones, op);

                if (expect.ok) {
                    EXPECT_TRUE(status.ok())
                        << status.toString();
                    if (type != ZoneType::Conventional) {
                        EXPECT_EQ(zones.zone(0).condition,
                                  expect.after)
                            << "landed in "
                            << toString(
                                   zones.zone(0).condition);
                    }
                } else {
                    ASSERT_FALSE(status.ok());
                    EXPECT_TRUE(
                        isDeviceError(status, expect.errc))
                        << "want " << toString(expect.errc)
                        << ", got " << status.toString();
                    EXPECT_EQ(status.code(),
                              statusCodeOf(expect.errc));
                    // Failed ops must leave the machine intact.
                    EXPECT_EQ(zones.zone(0).condition, condition);
                    EXPECT_EQ(zones.zone(0).writePointer,
                              wp_before);
                }
            }
        }
    }
}

TEST(ZoneSetTransitions, StatusCodeMappingIsCanonical)
{
    EXPECT_EQ(statusCodeOf(DeviceErrc::TransientMediaError),
              StatusCode::Unavailable);
    EXPECT_EQ(statusCodeOf(DeviceErrc::GrownDefect),
              StatusCode::DataLoss);
    EXPECT_EQ(statusCodeOf(DeviceErrc::ZoneOffline),
              StatusCode::DataLoss);
    EXPECT_EQ(statusCodeOf(DeviceErrc::PowerLoss),
              StatusCode::DataLoss);
    EXPECT_EQ(statusCodeOf(DeviceErrc::WritePointerViolation),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(statusCodeOf(DeviceErrc::ZoneReadOnly),
              StatusCode::FailedPrecondition);
}

TEST(ZoneSetTransitions, ErrorTagRoundTrips)
{
    const Status status =
        deviceError(DeviceErrc::GrownDefect, "sector 42");
    EXPECT_TRUE(isDeviceError(status, DeviceErrc::GrownDefect));
    EXPECT_FALSE(isDeviceError(status, DeviceErrc::ZoneOffline));
    EXPECT_NE(status.message().find("[GROWN_DEFECT]"),
              std::string::npos);
    EXPECT_NE(status.message().find("sector 42"),
              std::string::npos);
    // A foreign status with the right code but no tag is not a
    // device error.
    EXPECT_FALSE(isDeviceError(dataLossError("corrupt frame"),
                               DeviceErrc::GrownDefect));
}

TEST(ZoneSetPolicy, OpenLimitEvictsLruImplicitZone)
{
    ZoneLayout layout;
    layout.zoneSectors = kZoneSectors;
    layout.maxOpenZones = 2;
    ZoneSet zones(layout);
    zones.ensureCovers(4 * kZoneSectors);

    // Implicitly open zones 0 and 1 through writes.
    ASSERT_TRUE(zones.write(0, {0, 8}).ok());
    ASSERT_TRUE(
        zones.write(1, {1 * kZoneSectors, 8}).ok());
    EXPECT_EQ(zones.openZones(), 2u);

    // A third implicit open evicts zone 0 (least recently opened).
    ASSERT_TRUE(
        zones.write(2, {2 * kZoneSectors, 8}).ok());
    EXPECT_EQ(zones.openZones(), 2u);
    EXPECT_EQ(zones.implicitCloses(), 1u);
    EXPECT_EQ(zones.zone(0).condition, ZoneCondition::Closed);
    EXPECT_EQ(zones.zone(1).condition,
              ZoneCondition::ImplicitOpen);
    EXPECT_EQ(zones.zone(2).condition,
              ZoneCondition::ImplicitOpen);
}

TEST(ZoneSetPolicy, SwpCountsOutOfPolicyWrites)
{
    ZoneLayout layout;
    layout.zoneSectors = kZoneSectors;
    layout.type = ZoneType::SequentialWritePreferred;
    ZoneSet zones(layout);
    zones.ensureCovers(kZoneSectors);

    ASSERT_TRUE(zones.write(0, {0, 8}).ok());   // sequential
    ASSERT_TRUE(zones.write(0, {64, 8}).ok());  // absorbed
    ASSERT_TRUE(zones.write(0, {32, 8}).ok());  // absorbed
    EXPECT_EQ(zones.outOfPolicyWrites(), 2u);
    // The pointer tracks the furthest written sector.
    EXPECT_EQ(zones.zone(0).writePointer, 72u);
}

TEST(ZoneSetPolicy, WriteFillingZoneGoesFull)
{
    ZoneLayout layout;
    layout.zoneSectors = kZoneSectors;
    ZoneSet zones(layout);
    zones.ensureCovers(kZoneSectors);

    ASSERT_TRUE(zones.write(0, {0, kZoneSectors}).ok());
    EXPECT_EQ(zones.zone(0).condition, ZoneCondition::Full);
    EXPECT_EQ(zones.zone(0).writePointer, kZoneSectors);
    // Full zones hold no open slot.
    EXPECT_EQ(zones.openZones(), 0u);

    // Reset reclaims it.
    ASSERT_TRUE(zones.reset(0).ok());
    EXPECT_EQ(zones.zone(0).condition, ZoneCondition::Empty);
    EXPECT_EQ(zones.zone(0).writePointer, 0u);
    EXPECT_EQ(zones.resets(), 1u);
}

TEST(ZoneSetGeometry, AnchoredGridAlignsWithLogRegion)
{
    ZoneLayout layout;
    layout.zoneSectors = kZoneSectors;
    layout.anchorSector = 100; // identity region end, off-grid
    ZoneSet zones(layout);

    EXPECT_EQ(zones.zoneIndexOf(0), 0u);
    EXPECT_EQ(zones.zoneIndexOf(99), 0u);
    EXPECT_EQ(zones.zoneIndexOf(100), 1u);
    EXPECT_EQ(zones.zoneIndexOf(100 + kZoneSectors - 1), 1u);
    EXPECT_EQ(zones.zoneIndexOf(100 + kZoneSectors), 2u);

    // The anchor zone has exactly the identity region's capacity;
    // grid zones are uniform after it.
    EXPECT_EQ(zones.zone(0).start, 0u);
    EXPECT_EQ(zones.zone(0).capacity, 100u);
    EXPECT_EQ(zones.zone(1).start, 100u);
    EXPECT_EQ(zones.zone(1).capacity, kZoneSectors);
}

TEST(ZoneSetGeometry, FillToMarksIdentityRegionWithoutOpenSlots)
{
    ZoneLayout layout;
    layout.zoneSectors = kZoneSectors;
    ZoneSet zones(layout);
    zones.fillTo(kZoneSectors + 40);

    EXPECT_EQ(zones.zone(0).condition, ZoneCondition::Full);
    EXPECT_EQ(zones.zone(0).writePointer, kZoneSectors);
    EXPECT_EQ(zones.zone(1).condition, ZoneCondition::Closed);
    EXPECT_EQ(zones.zone(1).writePointer, kZoneSectors + 40);
    // Pre-existing data must not consume open-zone slots.
    EXPECT_EQ(zones.openZones(), 0u);

    const auto census = zones.conditionCensus();
    EXPECT_EQ(census[static_cast<std::size_t>(
                  ZoneCondition::Full)],
              1u);
    EXPECT_EQ(census[static_cast<std::size_t>(
                  ZoneCondition::Closed)],
              1u);
}

} // namespace
} // namespace logseek::disk
