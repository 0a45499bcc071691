/**
 * @file
 * The single accounting sink of the replay engine.
 *
 * Every SimResult mutation — seek counts, byte counters, seek-time
 * accumulation, mechanism hit/miss tallies — flows through one
 * Accounting instance per run. The disk head lives here too, so
 * host-visible and cleaning accesses share one physical position
 * and the seek definition (§II) is applied in exactly one place.
 * The replay engine reports what happened; only Accounting decides
 * how it shows up in the result. Each access is classified, timed
 * and mirrored through the zoned device the moment it is reported,
 * in replay order. The replay's telemetry counters are published
 * from the finished result, not from here.
 */

#ifndef LOGSEEK_STL_ACCOUNTING_H
#define LOGSEEK_STL_ACCOUNTING_H

#include <cstddef>
#include <cstdint>

#include "disk/head.h"
#include "disk/seek_time.h"
#include "disk/zoned_device.h"
#include "stl/simulator.h"
#include "stl/translation_layer.h"

namespace logseek::stl
{

/** Per-run sink for all SimResult accounting. */
class Accounting
{
  public:
    /**
     * @param result The result being built; must outlive this sink.
     * @param params Seek-time model parameters.
     */
    Accounting(SimResult &result,
               const disk::SeekTimeParams &params);

    /** A host read request arrived. */
    void beginRead();

    /** A host write request of the given size arrived. */
    void beginWrite(std::uint64_t host_bytes);

    /** A read resolved to `fragments` physical runs (post-merge). */
    void readFragmentation(std::size_t fragments);

    /**
     * One host-visible media access covering extent. Seeks are
     * detected against the shared head position, classified by
     * type, timed by the analytic model, and recorded on both the
     * event and the result.
     */
    void hostAccess(IoEvent &event, const SectorExtent &extent,
                    trace::IoType type);

    /**
     * One background cleaning access (media-cache merge or log
     * garbage collection). Moves the shared head but is accounted
     * separately from host-visible seeks.
     */
    void cleaningAccess(IoEvent &event, const MediaAccess &access);

    /** A fragment was served from the selective cache. */
    void cacheHit(IoEvent &event);

    /** A fragmented-read fragment missed the selective cache. */
    void cacheMiss();

    /** A fragment was served from the drive prefetch buffer. */
    void prefetchHit(IoEvent &event);

    /** A defrag rewrite of `bytes` logical bytes was triggered. */
    void defragRewrite(IoEvent &event, std::uint64_t bytes);

    /** Sample the layer's cleaning-merge counter (end of run). */
    void setCleaningMerges(std::uint64_t merges);

    /** Record GC victim statistics (finite log only). */
    void setGcVictimStats(std::uint64_t live_bytes,
                          std::uint64_t span_bytes);

    /** Sample the layer's static fragmentation (end of run). */
    void setStaticFragments(std::size_t fragments);

    /**
     * Route all subsequent media accesses through a zoned device
     * (not owned; may be null to detach). With no device attached
     * — the default — accounting behaves exactly as before the
     * device layer existed.
     */
    void attachDevice(disk::ZonedDevice *device);

    /** Sample the device's lifetime totals and final zone census
     *  into the result (end of run; no-op when detached). */
    void finishDevice();

    const SimResult &result() const { return result_; }

  private:
    /** Mirror one media access through the attached device. */
    void deviceAccess(IoEvent &event, const SectorExtent &extent,
                      trace::IoType type);

    SimResult &result_;
    disk::DiskHead head_;
    disk::SeekTimeModel timeModel_;
    disk::ZonedDevice *device_ = nullptr;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_ACCOUNTING_H
