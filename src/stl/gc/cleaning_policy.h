/**
 * @file
 * Pluggable garbage-collection policies for the finite log.
 *
 * The finite log's cleaner has two decisions: *when* to clean
 * (trigger/target hysteresis over the free-segment count) and
 * *which* closed segment to reclaim. Both live behind
 * CleaningPolicy so the layer's mechanics — moving live extents to
 * the frontier, journaling the reclaim, liveness bookkeeping — stay
 * in one place while the selection economics vary:
 *
 *  - greedy: the segment with the least live data, the layer's
 *    historical behaviour, pinned byte-identical by a differential
 *    regression test against the preserved reference cleaner;
 *  - cost-benefit: Sprite-LFS scoring age x (1-u)/(1+u), which
 *    prefers stable ("cold") fragmented segments over just-filled
 *    ones and lowers write amplification under hot/cold skew. It
 *    scores in exact integers, in 64-bit words while every
 *    cross-multiplied product fits and in 128-bit words past that;
 *  - zone-granular: SMORE-style whole-zone reclamation that streams
 *    the victim zone in one sequential read (one seek instead of
 *    one per live extent), rewrites the live data at the frontier
 *    and resets the zone.
 *
 * Policies are pure selectors over a read-only SegmentStateView,
 * one flat scan per victim; they mutate nothing and draw no
 * entropy, so every replay remains byte-identical across job
 * counts.
 */

#ifndef LOGSEEK_STL_GC_CLEANING_POLICY_H
#define LOGSEEK_STL_GC_CLEANING_POLICY_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "stl/gc/stream_router.h"
#include "util/units.h"

namespace logseek::stl::gc
{

/** Victim-selection strategy of the finite log's cleaner. */
enum class CleaningPolicyKind
{
    Greedy,
    CostBenefit,
    ZoneGranular,
};

/** Stable lowercase policy name ("greedy", "cost-benefit", ...). */
const char *toString(CleaningPolicyKind kind);

/** GC configuration carried inside FiniteLogConfig. */
struct GcConfig
{
    CleaningPolicyKind policy = CleaningPolicyKind::Greedy;

    /** Placement streams (1 = legacy single-frontier log; 2 =
     *  hot/cold separation). Each stream fills its own open
     *  segment; cleaning re-appends go to the coldest stream. */
    std::uint32_t streams = 1;

    /** Block-invalidation-time inference knobs (streams > 1). */
    StreamRouterConfig router;
};

/** One segment's state as the cleaner sees it. */
struct SegmentInfo
{
    /** Live (mapped) sectors. */
    SectorCount live = 0;

    /** Logical tick of the last write (0 = never written). */
    std::uint64_t lastWrite = 0;

    /** On the free list. */
    bool free = true;

    /** Some stream's open segment (never a victim). */
    bool open = false;
};

/**
 * The log's per-segment state a policy selects victims from, as
 * plain data: one flat scan per victim choice, no virtual calls.
 * Ticks are a logical clock advanced once per append, giving age
 * without wall time.
 */
struct SegmentStateView
{
    std::span<const SegmentInfo> segments;
    SectorCount segmentSectors = 0;

    /** Current logical tick. */
    std::uint64_t now = 0;
};

/** The victim-selection + hysteresis interface. */
class CleaningPolicy
{
  public:
    virtual ~CleaningPolicy() = default;

    virtual const char *name() const = 0;

    /** Hysteresis trigger: should a cleaning pass start? */
    virtual bool
    startCleaning(std::uint32_t free_segments,
                  std::uint32_t reserve_segments) const
    {
        return free_segments <= reserve_segments;
    }

    /** Hysteresis target: should the running pass keep reclaiming? */
    virtual bool
    continueCleaning(std::uint32_t free_segments,
                     std::uint32_t target_segments) const
    {
        return free_segments < target_segments;
    }

    /**
     * Pick the next victim, or nullopt when no closed segment can
     * make progress (everything is fully live). The caller decides
     * whether nullopt is benign (above the reserve) or overcommit.
     */
    virtual std::optional<std::uint32_t>
    selectVictim(const SegmentStateView &view) const = 0;

    /**
     * True when reclamation streams the whole victim zone as one
     * sequential read instead of seeking to each live extent.
     */
    virtual bool wholeZoneRead() const { return false; }
};

/** Policy factory; never returns null. */
std::unique_ptr<CleaningPolicy>
makeCleaningPolicy(CleaningPolicyKind kind);

} // namespace logseek::stl::gc

#endif // LOGSEEK_STL_GC_CLEANING_POLICY_H
