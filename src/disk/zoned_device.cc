#include "zoned_device.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"

namespace logseek::disk
{

namespace
{

/** splitmix64 finalizer: the pure per-sector fault hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from a hash. */
double
u01(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Domain-separation constants: each fault question asks an
// independent hash of the same (seed, sector) pair.
constexpr std::uint64_t kGrownSalt = 0x67726f776e646566ULL;
constexpr std::uint64_t kTransientSalt = 0x7472616e7369656eULL;
constexpr std::uint64_t kRetriesSalt = 0x7265747269657321ULL;
constexpr std::uint64_t kOfflineSalt = 0x6f66666c696e6521ULL;
constexpr std::uint64_t kDivergeSalt = 0x6469766572676521ULL;
constexpr std::uint64_t kCrashSalt = 0x706f7765726c6f73ULL;

std::uint32_t
clampToU32(std::uint64_t n)
{
    return n > UINT32_MAX ? UINT32_MAX
                          : static_cast<std::uint32_t>(n);
}

} // namespace

ZonedDevice::ZonedDevice(const ZoneLayout &layout,
                         const ZonedDeviceOptions &options)
    : options_(options), zones_(layout),
      errorLog_(options.errorLogCap)
{
    panicIf(options.errorLogCap == 0,
            "ZonedDevice: errorLogCap must be >= 1");
    auto &registry = telemetry::Registry::global();
    readRetries_ =
        &registry.counter("device_read_retries_total");
    zoneResets_ = &registry.counter("device_zone_resets_total");
    wpViolations_ =
        &registry.counter("device_wp_violations_total");
    mediaErrorsTransient_ = &registry.counter(
        "device_media_errors_total", "kind=\"transient\"");
    mediaErrorsGrown_ = &registry.counter(
        "device_media_errors_total", "kind=\"grown\"");
    crashes_ = &registry.counter("device_crashes_total");
}

void
ZonedDevice::checkAlive() const
{
    if (dead_)
        throw StatusError(deviceError(
            DeviceErrc::PowerLoss,
            "device lost power at write op " +
                std::to_string(
                    options_.crash.crashAtWriteOp) +
                " and has not been re-opened"));
}

void
ZonedDevice::fillTo(std::uint64_t end_sector)
{
    zones_.fillTo(end_sector);
}

ZonedDevice::SectorFault
ZonedDevice::classifySector(std::uint64_t sector) const
{
    const DeviceFaultConfig &f = options_.faults;
    const std::uint64_t h = mix64(options_.faults.seed ^ sector);
    if (f.grownRate > 0.0 &&
        u01(mix64(h ^ kGrownSalt)) < f.grownRate)
        return SectorFault::Grown;
    if (f.transientRate > 0.0 &&
        u01(mix64(h ^ kTransientSalt)) < f.transientRate)
        return SectorFault::Transient;
    return SectorFault::Good;
}

std::uint32_t
ZonedDevice::requiredRetries(std::uint64_t sector) const
{
    const std::uint32_t span = static_cast<std::uint32_t>(
        std::max(options_.faults.maxTransientRetries, 1));
    const std::uint64_t h =
        mix64(options_.faults.seed ^ sector ^ kRetriesSalt);
    return 1 + static_cast<std::uint32_t>(h % span);
}

bool
ZonedDevice::defectGoesOffline(std::uint64_t sector) const
{
    const std::uint64_t h =
        mix64(options_.faults.seed ^ sector ^ kOfflineSalt);
    return u01(h) < options_.faults.offlineShare;
}

void
ZonedDevice::discoverDefect(std::size_t index,
                            std::uint64_t sector)
{
    knownDefects_.insert(sector);
    ++stats_.grownDefects;
    const ZoneCondition current = zones_.zone(index).condition;
    if (current == ZoneCondition::Offline)
        return;
    // A grown defect degrades its whole zone: OFFLINE for the
    // severe share, READ_ONLY (data still readable) otherwise.
    zones_.forceCondition(index, defectGoesOffline(sector)
                                     ? ZoneCondition::Offline
                                     : ZoneCondition::ReadOnly);
}

DeviceReadResult
ZonedDevice::readPiece(std::size_t index,
                       const SectorExtent &piece)
{
    DeviceReadResult out;
    const Status readable = zones_.checkRead(index, piece);
    if (!readable.ok()) {
        out.failedSectors += clampToU32(piece.count);
        errorLog_.append({piece.start, 0, readable});
        return out;
    }

    // Every attempt after the first is a retry: a sector that
    // recovers spends the retries it needs, one that does not spends
    // the whole budget.
    constexpr std::uint32_t kBudget = kReadAttempts - 1;
    for (std::uint64_t sector = piece.start;
         sector < piece.end(); ++sector) {
        // A defect discovered earlier in this very piece may have
        // taken the zone offline; the rest of the piece is lost.
        if (zones_.zone(index).condition ==
            ZoneCondition::Offline) {
            ++out.failedSectors;
            continue;
        }
        const SectorFault fault = classifySector(sector);
        if (fault == SectorFault::Good)
            continue;
        if (knownDefects_.contains(sector)) {
            // Known-bad: fail fast, no pointless retries.
            ++out.failedSectors;
            continue;
        }
        if (fault == SectorFault::Transient) {
            mediaErrorsTransient_->add();
            const std::uint32_t required = requiredRetries(sector);
            const bool recovered = required <= kBudget;
            const std::uint32_t retries =
                recovered ? required : kBudget;
            readRetries_->add(retries);
            out.retries += retries;
            if (recovered) {
                ++out.recoveredSectors;
                errorLog_.append({sector, retries, Status()});
            } else {
                ++out.failedSectors;
                errorLog_.append(
                    {sector, retries,
                     deviceError(
                         DeviceErrc::TransientMediaError,
                         "sector " + std::to_string(sector) +
                             " unrecovered after " +
                             std::to_string(retries) +
                             " retries")});
            }
        } else {
            mediaErrorsGrown_->add();
            readRetries_->add(kBudget);
            out.retries += kBudget;
            ++out.failedSectors;
            errorLog_.append(
                {sector, kBudget,
                 deviceError(DeviceErrc::GrownDefect,
                             "sector " +
                                 std::to_string(sector) +
                                 " is a grown defect")});
            discoverDefect(index, sector);
        }
    }
    return out;
}

DeviceReadResult
ZonedDevice::read(const SectorExtent &extent)
{
    checkAlive();
    DeviceReadResult out;
    if (extent.empty())
        return out;
    zones_.ensureCovers(extent.end());
    // With no read fault armed no zone can be OFFLINE (only a grown
    // defect takes one there), so no piece can fail or retry.
    const DeviceFaultConfig &f = options_.faults;
    if (f.transientRate <= 0.0 && f.grownRate <= 0.0)
        return out;
    for (std::uint64_t sector = extent.start;
         sector < extent.end();) {
        const std::size_t index = zones_.zoneIndexOf(sector);
        const std::uint64_t piece_end =
            std::min(extent.end(), zones_.zone(index).end());
        const DeviceReadResult piece =
            readPiece(index, {sector, piece_end - sector});
        out.retries += piece.retries;
        out.recoveredSectors += piece.recoveredSectors;
        out.failedSectors += piece.failedSectors;
        sector = piece_end;
    }
    stats_.readRetries += out.retries;
    stats_.recoveredSectors += out.recoveredSectors;
    stats_.failedReadSectors += out.failedSectors;
    if (out.degraded())
        ++stats_.degradedReads;
    return out;
}

DeviceWriteResult
ZonedDevice::writePiece(std::size_t index,
                        const SectorExtent &piece)
{
    DeviceWriteResult out;
    const Zone &zone = zones_.zone(index);

    // A write rewinding to the start of a used sequential zone is
    // how the log layers reuse a reclaimed segment: model it as
    // RESET WRITE POINTER + write, the way a ZBC host would issue
    // it. A conventional zone has no pointer to reset.
    if (zone.type != ZoneType::Conventional &&
        piece.start == zone.start &&
        zone.writePointer != zone.start &&
        zones_.reset(index).ok())
        ++out.zoneResets;

    const std::uint64_t policy_before =
        zones_.outOfPolicyWrites();
    Status written = zones_.write(index, piece);
    if (!written.ok() &&
        isDeviceError(written,
                      DeviceErrc::WritePointerViolation)) {
        // Out-of-policy on an SWR zone: recover the way a host
        // does after a zone-report resync — adopt the host's
        // position and continue, counting the violation.
        zones_.moveWritePointer(index, piece.start);
        written = zones_.write(index, piece);
        if (written.ok())
            ++out.wpViolations;
    }
    if (!written.ok()) {
        // READ_ONLY/OFFLINE zone: the write is refused and the
        // data is lost — a counted, typed partial failure, never an
        // abort.
        out.failedSectors += clampToU32(piece.count);
        return out;
    }
    out.outOfPolicy += clampToU32(zones_.outOfPolicyWrites() -
                                  policy_before);
    return out;
}

DeviceWriteResult
ZonedDevice::write(const SectorExtent &extent)
{
    checkAlive();
    DeviceWriteResult out;
    if (extent.empty())
        return out;
    zones_.ensureCovers(extent.end());

    // Scheduled power loss: this very op dies mid-transfer. A
    // seeded prefix of the extent reaches the media (advancing the
    // zone write pointer partway — the torn tail a real drive
    // leaves), the rest is lost, and the device goes dead.
    if (options_.crash.armed() &&
        writeOps_ + 1 == options_.crash.crashAtWriteOp) {
        const std::uint64_t h = mix64(
            options_.crash.seed ^ (writeOps_ + 1) ^ kCrashSalt);
        const SectorCount flushed = h % (extent.count + 1);
        for (std::uint64_t sector = extent.start;
             sector < extent.start + flushed;) {
            const std::size_t index = zones_.zoneIndexOf(sector);
            const std::uint64_t piece_end =
                std::min(extent.start + flushed,
                         zones_.zone(index).end());
            writePiece(index, {sector, piece_end - sector});
            sector = piece_end;
        }
        ++writeOps_;
        dead_ = true;
        ++stats_.crashes;
        crashes_->add();
        throw StatusError(deviceError(
            DeviceErrc::PowerLoss,
            "power lost during write op " +
                std::to_string(writeOps_) + ": " +
                std::to_string(flushed) + " of " +
                std::to_string(extent.count) +
                " sectors reached the media"));
    }

    std::size_t last_index = 0;
    for (std::uint64_t sector = extent.start;
         sector < extent.end();) {
        const std::size_t index = zones_.zoneIndexOf(sector);
        const std::uint64_t piece_end =
            std::min(extent.end(), zones_.zone(index).end());
        const DeviceWriteResult piece =
            writePiece(index, {sector, piece_end - sector});
        out.zoneResets += piece.zoneResets;
        out.wpViolations += piece.wpViolations;
        out.outOfPolicy += piece.outOfPolicy;
        out.failedSectors += piece.failedSectors;
        last_index = index;
        sector = piece_end;
    }

    ++writeOps_;
    const DeviceFaultConfig &f = options_.faults;
    if (f.wpDivergenceRate > 0.0 &&
        u01(mix64(f.seed ^ writeOps_ ^ kDivergeSalt)) <
            f.wpDivergenceRate) {
        // Firmware-side write-pointer drift: the device pointer
        // creeps ahead of the host's view, so the host's next
        // sequential write lands behind it and must be recovered
        // as a violation.
        const Zone &zone = zones_.zone(last_index);
        if (zone.type != ZoneType::Conventional &&
            zone.condition != ZoneCondition::ReadOnly &&
            zone.condition != ZoneCondition::Offline) {
            zones_.moveWritePointer(
                last_index, zone.writePointer +
                                f.wpDivergenceSectors);
            ++stats_.wpDivergences;
        }
    }

    stats_.zoneResets += out.zoneResets;
    stats_.wpViolations += out.wpViolations;
    stats_.outOfPolicyWrites += out.outOfPolicy;
    stats_.failedWriteSectors += out.failedSectors;
    if (out.zoneResets > 0)
        zoneResets_->add(out.zoneResets);
    if (out.wpViolations > 0)
        wpViolations_->add(out.wpViolations);
    return out;
}

void
ZonedDevice::publishZoneGauges() const
{
    if (!telemetry::enabled())
        return;
    auto &registry = telemetry::Registry::global();
    const auto census = zones_.conditionCensus();
    for (std::size_t i = 0; i < census.size(); ++i) {
        const auto condition = static_cast<ZoneCondition>(i);
        registry
            .gauge("device_zones",
                   "condition=\"" +
                       std::string(toString(condition)) + "\"")
            .set(static_cast<std::int64_t>(census[i]));
    }
    registry.gauge("device_open_zones")
        .set(static_cast<std::int64_t>(zones_.openZones()));
}

} // namespace logseek::disk
