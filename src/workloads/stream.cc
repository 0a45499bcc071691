#include "stream.h"

#include <algorithm>

#include "util/logging.h"
#include "util/random.h"
#include "workloads/builder.h"

namespace logseek::workloads
{

WorkloadStream::WorkloadStream(StreamSpec spec)
    : spec_(std::move(spec))
{
    if (!spec_.makeChunk)
        panic("WorkloadStream '" + spec_.name + "': null makeChunk");
}

std::size_t
WorkloadStream::next(trace::IoEventBatch &batch, std::size_t max)
{
    // Advance past exhausted (or empty) chunks until one has
    // records left, regenerating at most one chunk per loop turn —
    // only the newest chunk is ever resident.
    while (chunkPos_ == chunk_.size()) {
        if (nextChunk_ >= spec_.chunks)
            return 0;
        if (!chunk_.empty())
            baseUs_ += chunk_[chunk_.size() - 1].timestampUs +
                       spec_.chunkGapUs;
        chunk_ = spec_.makeChunk(nextChunk_);
        ++nextChunk_;
        chunkPos_ = 0;
    }
    const std::size_t n =
        std::min(max, chunk_.size() - chunkPos_);
    batch.clear();
    for (std::size_t k = 0; k < n; ++k) {
        trace::IoRecord record = chunk_[chunkPos_ + k];
        record.timestampUs += baseUs_;
        batch.append(record);
    }
    chunkPos_ += n;
    return n;
}

void
WorkloadStream::reset()
{
    nextChunk_ = 0;
    chunk_ = trace::Trace();
    chunkPos_ = 0;
    baseUs_ = 0;
}

StreamSource::StreamSource(StreamSpec spec)
    : spec_(std::move(spec))
{
    if (!spec_.makeChunk)
        panic("StreamSource '" + spec_.name + "': null makeChunk");
}

StreamSpec
profileStream(const std::string &name,
              const ProfileOptions &options, std::uint64_t repeats)
{
    // One throwaway generation pins the stream's declared extent
    // and record count; the chunks regenerate it on demand.
    const trace::Trace probe = makeWorkload(name, options);
    StreamSpec spec;
    spec.name = name;
    spec.addressSpaceEnd = probe.addressSpaceEnd();
    spec.chunks = repeats;
    spec.totalRecords = probe.size() * repeats;
    spec.makeChunk = [name, options](std::uint64_t) {
        return makeWorkload(name, options);
    };
    return spec;
}

StreamSpec
mixedStream(const std::string &name, std::uint64_t chunks,
            std::uint64_t records_per_chunk, std::uint64_t seed)
{
    if (records_per_chunk < 2)
        panic("mixedStream '" + name +
              "': records_per_chunk must be >= 2");
    constexpr SectorCount kWriteIo = 256; // 128 KiB stripes
    constexpr SectorCount kReadIo = 64;   // 32 KiB reads
    const std::uint64_t writes_per_chunk = records_per_chunk / 2;
    const Lba region_sectors = writes_per_chunk * kWriteIo;

    StreamSpec spec;
    spec.name = name;
    spec.addressSpaceEnd = region_sectors;
    spec.chunks = chunks;
    spec.totalRecords = chunks * records_per_chunk;
    spec.makeChunk = [name, records_per_chunk, writes_per_chunk,
                      region_sectors,
                      seed](std::uint64_t chunk) -> trace::Trace {
        TraceBuilder builder(name);
        // Distinct, reproducible stream per (seed, chunk).
        Rng rng(seed ^ (chunk * 0x9e3779b97f4a7c15ULL +
                        0x2545f4914f6cdd1dULL));
        // Each chunk's writes tile the region once, phase-shifted
        // per chunk so successive chunks overwrite different
        // stripes first; reads hit seeded offsets of the region.
        const std::uint64_t phase =
            (chunk * 37) % writes_per_chunk;
        for (std::uint64_t i = 0; i < records_per_chunk; ++i) {
            if (i % 2 == 0) {
                const std::uint64_t stripe =
                    (i / 2 + phase) % writes_per_chunk;
                builder.write(stripe * kWriteIo, kWriteIo);
            } else {
                const Lba lba =
                    rng.nextUint(region_sectors - kReadIo + 1);
                builder.read(lba, kReadIo);
            }
        }
        return builder.take();
    };
    return spec;
}

} // namespace logseek::workloads
