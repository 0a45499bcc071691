#include "stream_router.h"

#include "util/logging.h"

namespace logseek::stl::gc
{

StreamRouter::StreamRouter(std::uint32_t streams,
                           const StreamRouterConfig &config)
    : streams_(streams), config_(config)
{
    panicIf(streams_ < 1 || streams_ > 8,
            "StreamRouter: stream count must be in [1, 8]");
    panicIf(config_.bucketSectors == 0,
            "StreamRouter: bucket granularity must be at least one "
            "sector");
}

StreamRouter::Bucket &
StreamRouter::bucketAt(std::uint64_t b)
{
    const std::uint64_t page = b / kPageBuckets;
    if (page >= pages_.size())
        pages_.resize(page + 1);
    std::unique_ptr<Bucket[]> &slots = pages_[page];
    if (!slots)
        slots = std::make_unique<Bucket[]>(kPageBuckets);
    return slots[b % kPageBuckets];
}

std::uint32_t
StreamRouter::route(Lba lba, SectorCount count)
{
    panicIf(count == 0, "StreamRouter: empty write");
    const std::uint64_t tick = ++clock_;
    if (streams_ == 1)
        return 0;

    // Refresh every bucket the extent spans; remember the first
    // bucket's state, which decides the stream.
    const std::uint64_t first = lba / config_.bucketSectors;
    const std::uint64_t last =
        (lba + count - 1) / config_.bucketSectors;
    bool first_seen = false;
    std::uint64_t first_interval = 0;
    for (std::uint64_t b = first; b <= last; ++b) {
        Bucket &bucket = bucketAt(b);
        if (bucket.lastWrite == 0) {
            bucket.lastWrite = tick;
            continue;
        }
        const std::uint64_t interval = tick - bucket.lastWrite;
        bucket.lastWrite = tick;
        // Per-bucket EWMA (alpha = 1/4) over this bucket's update
        // intervals; global EWMA (alpha = 1/16) tracks the whole
        // workload's re-write tempo and sets the band thresholds.
        bucket.interval =
            bucket.interval == 0
                ? interval
                : (3 * bucket.interval + interval) / 4;
        meanInterval_ = meanInterval_ == 0
                            ? interval
                            : (15 * meanInterval_ + interval) / 16;
        if (b == first) {
            first_seen = true;
            first_interval = bucket.interval;
        }
    }

    // First touch: no invalidation-time evidence yet, so the block
    // is presumed long-lived and goes to the coldest stream.
    if (!first_seen)
        return coldestStream();

    // Geometric bands under the global mean: stream k takes
    // estimates up to mean >> (streams - 2 - k), so stream 0 holds
    // the fastest-invalidating blocks and anything at or above the
    // mean tempo stays cold.
    for (std::uint32_t k = 0; k + 1 < streams_; ++k) {
        const std::uint64_t threshold =
            meanInterval_ >> (streams_ - 2 - k);
        if (first_interval <= threshold)
            return k;
    }
    return coldestStream();
}

} // namespace logseek::stl::gc
