/**
 * @file
 * Victim selection for the finite log's cleaner.
 *
 * The finite log's cleaner has two decisions: *when* to clean
 * (trigger/target hysteresis over the free-segment count, which
 * the layer applies itself) and *which* closed segment to reclaim.
 * The second is selectVictim, so the layer's mechanics — moving
 * live extents to the frontier, journaling the reclaim, liveness
 * bookkeeping — stay in one place while the selection economics
 * vary with the configured CleaningPolicyKind:
 *
 *  - greedy: the segment with the least live data, the layer's
 *    historical behaviour, pinned byte-identical by a differential
 *    regression test against the preserved reference cleaner;
 *  - cost-benefit: Sprite-LFS scoring age x (1-u)/(1+u), which
 *    prefers stable ("cold") fragmented segments over just-filled
 *    ones and lowers write amplification under hot/cold skew. It
 *    scores in exact integers, in 64-bit words while every
 *    cross-multiplied product fits and in 128-bit words past that;
 *  - zone-granular: SMORE-style whole-zone reclamation; the layer
 *    streams the victim zone in one sequential read (one seek
 *    instead of one per live extent), rewrites the live data at the
 *    frontier and resets the zone.
 *
 * Each kind is a pure scan over a read-only SegmentStateView, one
 * flat pass per victim; it mutates nothing and draws no entropy, so
 * every replay remains byte-identical across job counts.
 */

#ifndef LOGSEEK_STL_GC_CLEANING_POLICY_H
#define LOGSEEK_STL_GC_CLEANING_POLICY_H

#include <cstdint>
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
 * The log's per-segment state a victim is selected from, as plain
 * data: one flat scan per victim choice. Ticks are a logical clock
 * advanced once per append, giving age without wall time.
 */
struct SegmentStateView
{
    std::span<const SegmentInfo> segments;
    SectorCount segmentSectors = 0;

    /** Current logical tick. */
    std::uint64_t now = 0;
};

/**
 * Pick the next victim under `kind`, or nullopt when no closed
 * segment can make progress (everything is fully live). The caller
 * decides whether nullopt is benign (above the reserve) or
 * overcommit.
 */
std::optional<std::uint32_t>
selectVictim(CleaningPolicyKind kind, const SegmentStateView &view);

} // namespace logseek::stl::gc

#endif // LOGSEEK_STL_GC_CLEANING_POLICY_H
