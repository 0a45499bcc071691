/**
 * @file
 * Media-cache translation layer — the "simple STL" of paper §II.
 *
 * Existing drive-managed SMR translation layers log updates to a
 * reserved region of the disk (the media cache / E-region) and
 * periodically merge them back into data zones, where data is
 * stored in LBA order. Almost all data therefore stays in logical
 * order — little or no read seek amplification — but at the price
 * of high cleaning overhead: every merge is a read-modify-write of
 * whole zone-sized bands.
 *
 * This layer is the comparator for the paper's full-map
 * log-structured approach: it trades the seek amplification studied
 * in the paper for write amplification and cleaning seeks, both of
 * which the simulator accounts separately.
 */

#ifndef LOGSEEK_STL_MEDIA_CACHE_H
#define LOGSEEK_STL_MEDIA_CACHE_H

#include <cstdint>

#include "stl/extent_map.h"
#include "stl/translation_layer.h"
#include "trace/record.h"

namespace logseek::stl
{

/** Configuration of the media-cache layer. */
struct MediaCacheConfig
{
    /** Capacity of the media-cache region in bytes. */
    std::uint64_t cacheBytes = 64 * kMiB;

    /** Merge back to data zones when this fraction is dirty. */
    double mergeThreshold = 0.8;

    /**
     * Band (zone) granularity of the merge read-modify-write in
     * bytes; drive-managed SMR devices merge whole zones.
     */
    std::uint64_t bandBytes = 16 * kMiB;
};

/**
 * Drive-managed-style translation: data zones hold data at its LBA
 * (identity placement); writes append to a media-cache log region
 * placed above the data zones; when the cache fills past the
 * threshold every dirty band is merged back with a read-modify-
 * write, returning the address space to pure LBA order.
 */
class MediaCacheLayer : public TranslationLayer
{
  public:
    /**
     * @param data_zone_end One past the highest data-zone sector
     *        (the workload's address-space end); the media cache
     *        lives immediately above it.
     * @param config Cache capacity and merge policy.
     */
    MediaCacheLayer(Pba data_zone_end,
                    const MediaCacheConfig &config = {});

    void translateReadInto(const SectorExtent &extent,
                           SegmentBuffer &out) const override;

    void placeWriteInto(const SectorExtent &extent,
                        SegmentBuffer &out) override;

    bool hasMaintenance() const override { return true; }

    std::size_t staticFragmentCount() const override;

    std::string name() const override { return "media-cache"; }

    void attachJournal(SegmentJournal *journal) override
    {
        journal_ = journal;
    }

    /** Replays cache placements and MergeReset epochs (each merge
     *  drops the map and rewinds the append pointer), then adopts
     *  the recorded cache pointer. */
    MountStats
    mountFromJournal(const SegmentJournal &journal) override;

    /**
     * Background work owed after the last request: when the cache
     * is past its threshold this returns the full merge's media
     * accesses (band reads, cache-fragment reads, band writes, in
     * ascending band order) and resets the cache. Empty otherwise.
     */
    std::vector<MediaAccess> maintenance() override;

    /** Sectors currently dirty in the media cache. */
    SectorCount cacheUsedSectors() const { return cacheUsed_; }

    /** First sector of the media-cache region. */
    Pba cacheStart() const { return cacheStart_; }

    /** Number of merges performed so far. */
    std::uint64_t mergeCount() const { return merges_; }

    /** Next cache append position (Fsck and diagnostics). */
    Pba cachePointer() const { return cachePtr_; }

    /** Cache map (read-only; Fsck and diagnostics). */
    const ExtentMap &extentMap() const { return map_; }

  private:
    /** True once the configured merge threshold is exceeded. */
    bool needsMerge() const;

    MediaCacheConfig config_;
    Pba dataZoneEnd_;
    Pba cacheStart_;
    SectorCount cacheCapacity_;
    SectorCount bandSectors_;

    /** LBAs whose newest data lives in the cache region. */
    ExtentMap map_;

    /** Append pointer inside the cache region. */
    Pba cachePtr_;
    SectorCount cacheUsed_ = 0;
    std::uint64_t merges_ = 0;

    /** Durable metadata journal; null = volatile (the default). */
    SegmentJournal *journal_ = nullptr;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_MEDIA_CACHE_H
