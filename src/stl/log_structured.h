/**
 * @file
 * Log-structured translation layer with a write frontier (paper §II
 * "disk model").
 *
 * Every write is placed at the current write frontier, which
 * advances forever across an infinite disk (no cleaning). Data never
 * written during the simulation is assumed to live at its identity
 * location (pba == lba), and the frontier starts just above the
 * highest LBA of the workload, exactly as the paper assigns
 * locations for data written before trace collection began.
 */

#ifndef LOGSEEK_STL_LOG_STRUCTURED_H
#define LOGSEEK_STL_LOG_STRUCTURED_H

#include <optional>

#include "stl/extent_map.h"
#include "stl/translation_layer.h"

namespace logseek::stl
{

/**
 * Optional zone structure for the log (paper §II background): SMR
 * devices divide each platter into zones separated by guard tracks.
 * When configured, the write frontier fills one zone's writable
 * area, then skips the guard — a write straddling the boundary is
 * split into per-zone segments and the skip costs one (short) seek.
 */
struct ZoneConfig
{
    /** Writable bytes per zone. */
    std::uint64_t zoneBytes = 256 * kMiB;

    /** Guard-band bytes between adjacent zones. */
    std::uint64_t guardBytes = kMiB;
};

/**
 * The write-frontier arithmetic of a (possibly zoned) log: where
 * the next write lands, how much of the current zone is left, and
 * the guard skip when a zone fills.
 */
class LogFrontier
{
  public:
    /** @param start First physical sector of the log; zone
     *        boundaries are laid out from here. */
    explicit LogFrontier(Pba start,
                         const std::optional<ZoneConfig> &zones);

    /** Physical sector the next write will start at. */
    Pba pos() const { return pos_; }

    /** Sectors left in the current zone (max value if unzoned). */
    SectorCount zoneRemaining() const;

    /** Consume `take` sectors (take <= zoneRemaining()), skipping
     *  the guard band when the zone fills up. */
    void advance(SectorCount take);

    /** Number of zone boundaries crossed so far. */
    std::uint64_t crossings() const { return crossings_; }

    /**
     * Mount-time restore: adopt the position (and crossing count)
     * a journal recorded after its last epoch. Panics if the
     * position sits inside a guard band — a journal that places
     * the frontier there is lying.
     */
    void restore(Pba pos, std::uint64_t crossings);

  private:
    Pba start_;
    Pba pos_;
    SectorCount zoneSectors_ = 0; ///< 0 = unzoned
    SectorCount guardSectors_ = 0;
    std::uint64_t crossings_ = 0;
};

/** Full-extent-map log-structured translation layer. */
class LogStructuredLayer : public TranslationLayer
{
  public:
    /**
     * @param initial_frontier First physical sector of the log;
     *        must be at or above the workload's highest LBA + 1 so
     *        the log never collides with identity-placed data.
     * @param zones Optional zone/guard structure; zone boundaries
     *        are laid out from the initial frontier.
     */
    explicit LogStructuredLayer(Pba initial_frontier,
                                std::optional<ZoneConfig> zones = {});

    void translateReadInto(const SectorExtent &extent,
                           SegmentBuffer &out) const override;

    void placeWriteInto(const SectorExtent &extent,
                        SegmentBuffer &out) override;

    std::size_t staticFragmentCount() const override;

    std::string name() const override { return "log-structured"; }

    void attachJournal(SegmentJournal *journal) override
    {
        journal_ = journal;
    }

    MountStats
    mountFromJournal(const SegmentJournal &journal) override;

    /** Physical sector the next write will start at. */
    Pba writeFrontier() const { return frontier_.pos(); }

    /** Sector where the log began (initial frontier). */
    Pba logStart() const { return logStart_; }

    /** Access to the translation map (read-only, for analyses). */
    const ExtentMap &extentMap() const { return map_; }

    /** Number of zone boundaries the frontier has crossed. */
    std::uint64_t zoneCrossings() const
    {
        return frontier_.crossings();
    }

  private:
    ExtentMap map_;
    Pba logStart_;
    LogFrontier frontier_;

    /** Durable metadata journal; null = volatile (the default). */
    SegmentJournal *journal_ = nullptr;

    /** Reusable per-op entry scratch for journal records. */
    std::vector<JournalEntry> journalScratch_;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_LOG_STRUCTURED_H
