#include "accounting.h"

namespace logseek::stl
{

Accounting::Accounting(SimResult &result,
                       const disk::SeekTimeParams &params)
    : result_(result), timeModel_(params)
{
}

void
Accounting::beginRead()
{
    ++result_.reads;
}

void
Accounting::beginWrite(std::uint64_t host_bytes)
{
    ++result_.writes;
    result_.hostWriteBytes += host_bytes;
}

void
Accounting::readFragmentation(std::size_t fragments)
{
    if (fragments >= 2) {
        ++result_.fragmentedReads;
        result_.readFragments += fragments;
    }
}

void
Accounting::hostAccess(IoEvent &event, const SectorExtent &extent,
                       trace::IoType type)
{
    const disk::SeekInfo info = head_.access(extent, type);
    event.mediaBytes += extent.bytes();
    if (info.seeked) {
        event.seeks.push_back(info);
        if (type == trace::IoType::Read)
            ++result_.readSeeks;
        else
            ++result_.writeSeeks;
        result_.seekTimeSec +=
            timeModel_.seekSeconds(info.distanceBytes);
    }
    if (type == trace::IoType::Read)
        result_.mediaReadBytes += extent.bytes();
    else
        result_.mediaWriteBytes += extent.bytes();
    if (device_ != nullptr)
        deviceAccess(event, extent, type);
}

void
Accounting::cleaningAccess(IoEvent &event, const MediaAccess &access)
{
    const disk::SeekInfo info =
        head_.access(access.physical, access.type);
    if (info.seeked) {
        ++result_.cleaningSeeks;
        ++event.cleaningSeeks;
        result_.seekTimeSec +=
            timeModel_.seekSeconds(info.distanceBytes);
    }
    if (access.type == trace::IoType::Read)
        result_.cleaningReadBytes += access.physical.bytes();
    else
        result_.cleaningWriteBytes += access.physical.bytes();
    if (device_ != nullptr)
        deviceAccess(event, access.physical, access.type);
}

void
Accounting::attachDevice(disk::ZonedDevice *device)
{
    device_ = device;
}

void
Accounting::deviceAccess(IoEvent &event,
                         const SectorExtent &extent,
                         trace::IoType type)
{
    if (type == trace::IoType::Read) {
        const disk::DeviceReadResult read =
            device_->read(extent);
        result_.deviceReadRetries += read.retries;
        result_.deviceRecoveredSectors += read.recoveredSectors;
        result_.deviceFailedReadSectors += read.failedSectors;
        if (read.degraded())
            ++result_.deviceDegradedReads;
        event.deviceRetries += read.retries;
        event.deviceFailedSectors += read.failedSectors;
    } else {
        const disk::DeviceWriteResult write =
            device_->write(extent);
        result_.deviceZoneResets += write.zoneResets;
        result_.deviceWpViolations += write.wpViolations;
        result_.deviceOutOfPolicyWrites += write.outOfPolicy;
        result_.deviceFailedWriteSectors += write.failedSectors;
        event.deviceFailedSectors += write.failedSectors;
    }
}

void
Accounting::finishDevice()
{
    if (device_ == nullptr)
        return;
    const disk::DeviceStats &stats = device_->stats();
    result_.deviceGrownDefects = stats.grownDefects;
    const auto census = device_->zones().conditionCensus();
    result_.deviceReadOnlyZones =
        census[static_cast<std::size_t>(
            disk::ZoneCondition::ReadOnly)];
    result_.deviceOfflineZones = census[static_cast<std::size_t>(
        disk::ZoneCondition::Offline)];
    result_.deviceErrorLogDropped =
        device_->readErrorLog().dropped();
    device_->publishZoneGauges();
}

void
Accounting::cacheHit(IoEvent &event)
{
    ++event.cacheHits;
    ++result_.cacheHits;
}

void
Accounting::cacheMiss()
{
    ++result_.cacheMisses;
}

void
Accounting::prefetchHit(IoEvent &event)
{
    ++event.prefetchHits;
    ++result_.prefetchHits;
}

void
Accounting::defragRewrite(IoEvent &event, std::uint64_t bytes)
{
    event.defragRewrite = true;
    ++result_.defragRewrites;
    result_.defragBytes += bytes;
}

void
Accounting::setCleaningMerges(std::uint64_t merges)
{
    result_.cleaningMerges = merges;
}

void
Accounting::setGcVictimStats(std::uint64_t live_bytes,
                             std::uint64_t span_bytes)
{
    result_.gcVictimLiveBytes = live_bytes;
    result_.gcVictimSpanBytes = span_bytes;
}

void
Accounting::setStaticFragments(std::size_t fragments)
{
    result_.staticFragments = fragments;
}

} // namespace logseek::stl
