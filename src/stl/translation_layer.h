/**
 * @file
 * Abstract block translation layer (paper §I-II).
 *
 * A translation layer provides the rewritable LBA abstraction on top
 * of the physical medium. The simulator asks it where reads must go
 * (translateRead) and where writes land (placeWrite); the two
 * implementations are the conventional update-in-place layer (the
 * paper's NoLS baseline) and the log-structured layer with a write
 * frontier (LS).
 */

#ifndef LOGSEEK_STL_TRANSLATION_LAYER_H
#define LOGSEEK_STL_TRANSLATION_LAYER_H

#include <string>
#include <vector>

#include "stl/extent_map.h"
#include "stl/segment_journal.h"
#include "trace/record.h"
#include "util/extent.h"

namespace logseek::stl
{

/**
 * One background media access owed by a translation layer —
 * cleaning reads/writes from media-cache merges or log garbage
 * collection. The simulator plays these through the disk head and
 * accounts them separately from host-visible traffic.
 */
struct MediaAccess
{
    SectorExtent physical;
    trace::IoType type = trace::IoType::Read;
};

/** Translation layer interface. */
class TranslationLayer
{
  public:
    virtual ~TranslationLayer() = default;

    /**
     * Resolve a logical read into physical segments in LBA order,
     * clearing `out` and filling it with the result. Does not change
     * translation state. This is the replay hot path: callers reuse
     * one SegmentBuffer across requests, so steady state performs no
     * heap allocation.
     */
    virtual void translateReadInto(const SectorExtent &extent,
                                   SegmentBuffer &out) const = 0;

    /**
     * Choose the physical placement for a logical write and update
     * the translation state, clearing `out` and filling it with the
     * placed segments (a single segment for most implementations).
     */
    virtual void placeWriteInto(const SectorExtent &extent,
                                SegmentBuffer &out) = 0;

    /**
     * True when the layer owes background work via maintenance().
     * Layers returning false guarantee maintenance() is empty, so
     * the replay engine can skip the call entirely.
     */
    virtual bool hasMaintenance() const { return false; }

    /**
     * Allocating convenience wrapper around translateReadInto
     * (tests, tools, one-off queries).
     */
    std::vector<Segment> translateRead(const SectorExtent &extent) const;

    /** Allocating convenience wrapper around placeWriteInto. */
    std::vector<Segment> placeWrite(const SectorExtent &extent);

    /**
     * Static fragmentation: the number of physically contiguous
     * runs the written LBA space is currently split into.
     */
    virtual std::size_t staticFragmentCount() const = 0;

    /** Human-readable layer name. */
    virtual std::string name() const = 0;

    /**
     * Background work owed after the last request (cleaning /
     * merging). Called by the simulator once per host request;
     * layers without background work return nothing.
     */
    virtual std::vector<MediaAccess> maintenance() { return {}; }

    /**
     * Attach the durable metadata journal: from now on every
     * translation-state mutation (placement, reclaim, merge) is
     * recorded as one epoch frame. Not owned; null detaches. The
     * conventional layer keeps the default no-op — identity
     * placement has no state to lose.
     */
    virtual void attachJournal(SegmentJournal *journal)
    {
        (void)journal;
    }

    /**
     * Crash recovery: rebuild the translation state by scanning a
     * (possibly torn) journal image — SMORE-style log-scan mount.
     * Must be called on a freshly constructed layer; replays the
     * scan's consistent epoch prefix and restores the write
     * position recorded with the last epoch. The default (identity
     * layers) applies nothing but still reports the scan, so a
     * caller can see the damage tally for any layer. Records the
     * mount duration in the mount_latency_ns histogram.
     */
    virtual MountStats mountFromJournal(const SegmentJournal &journal);
};

/**
 * Merge consecutive segments whose physical runs are contiguous, in
 * place and in order. Translation can produce logically split but
 * physically adjacent segments (e.g. an identity hole next to an
 * identity-placed run); the device would serve those with a single
 * sequential access, so the replay engine merges them before seek
 * accounting. Only runs adjacent both logically and physically
 * merge, and the merged segment is marked mapped if any constituent
 * was mapped.
 */
void mergePhysicallyContiguousInPlace(SegmentBuffer &segments);

} // namespace logseek::stl

#endif // LOGSEEK_STL_TRANSLATION_LAYER_H
