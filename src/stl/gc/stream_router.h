/**
 * @file
 * Hot/cold placement-stream classifier driven by block-invalidation
 * -time inference.
 *
 * Separating Data via Block Invalidation Time Inference (FAST '22)
 * observes that a block's *invalidation time* — how long until it is
 * overwritten — is the quantity a cleaner actually cares about, and
 * that it can be inferred online: a block's last update interval
 * predicts its next one. The router keeps a decayed update-interval
 * estimate per LBA bucket and classifies each host write into one of
 * N placement streams: short inferred intervals (hot, soon-dead
 * data) are separated from long ones (cold, long-lived data), so
 * segments fill with data that dies together and victims are either
 * mostly dead (hot streams) or left alone (cold streams).
 *
 * Everything is a deterministic function of the write sequence — a
 * logical clock ticks once per routed write, intervals are measured
 * in ticks, and the decayed estimates use integer EWMA arithmetic —
 * so a replay is byte-identical whatever the sweep's job count.
 *
 * The buckets live in a paged flat table: bucket b is slot
 * b % kPageBuckets of page b / kPageBuckets, and a page is allocated
 * the first time a write touches it, so memory follows the LBA
 * ranges written. A route into touched pages is index arithmetic:
 * no hashing and no allocation. A bucket whose lastWrite is 0 has
 * never been written, since the clock's first tick is 1.
 */

#ifndef LOGSEEK_STL_GC_STREAM_ROUTER_H
#define LOGSEEK_STL_GC_STREAM_ROUTER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "util/units.h"

namespace logseek::stl::gc
{

/** Tuning knobs of the block-invalidation-time inference. */
struct StreamRouterConfig
{
    /**
     * LBA bucket granularity in sectors: writes whose start sectors
     * fall in the same bucket share one update-interval estimate.
     * Coarser buckets cost less memory and generalize across
     * neighbours; finer buckets track per-extent behaviour.
     */
    SectorCount bucketSectors = 64;
};

/**
 * Classifies host writes into [0, streams) where stream 0 is the
 * hottest (shortest inferred invalidation time) and streams-1 the
 * coldest. First-touch writes — no interval history — go cold, as
 * do writes whose decayed interval estimate exceeds the decayed
 * global mean; the bands in between split geometrically.
 */
class StreamRouter
{
  public:
    /** @param streams Placement stream count, in [1, 8]. */
    explicit StreamRouter(std::uint32_t streams,
                          const StreamRouterConfig &config = {});

    /** Buckets per page of the bucket table. */
    static constexpr std::uint64_t kPageBuckets = 4096;

    /**
     * Classify one host write and advance the logical clock. Every
     * bucket the extent spans has its interval estimate refreshed;
     * the first bucket's estimate decides the stream. Panics on an
     * empty extent.
     */
    std::uint32_t route(Lba lba, SectorCount count);

    std::uint32_t streams() const { return streams_; }

    /** The coldest stream; cleaning re-appends belong here. */
    std::uint32_t
    coldestStream() const
    {
        return streams_ - 1;
    }

    /** Logical writes routed so far. */
    std::uint64_t clock() const { return clock_; }

    /** Decayed mean update interval across all buckets (ticks). */
    std::uint64_t meanInterval() const { return meanInterval_; }

  private:
    struct Bucket
    {
        /** Logical tick of the bucket's last write (0 = never). */
        std::uint64_t lastWrite = 0;

        /** Decayed update-interval estimate (0 = one write seen). */
        std::uint64_t interval = 0;
    };

    /** Bucket b, allocating its page on first touch. */
    Bucket &bucketAt(std::uint64_t b);

    std::uint32_t streams_;
    StreamRouterConfig config_;
    std::uint64_t clock_ = 0;
    std::uint64_t meanInterval_ = 0;

    /** Page p holds buckets p * kPageBuckets up to (p + 1) *
     *  kPageBuckets, and stays null until a write touches one of
     *  them. The directory itself grows to the highest page
     *  written, 8 bytes per page. */
    std::vector<std::unique_ptr<Bucket[]>> pages_;
};

} // namespace logseek::stl::gc

#endif // LOGSEEK_STL_GC_STREAM_ROUTER_H
