#include "phases.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace logseek::workloads
{

void
sequentialWrite(TraceBuilder &builder, const SectorExtent &region,
                SectorCount io_sectors)
{
    panicIf(io_sectors == 0, "sequentialWrite: io size must be > 0");
    Lba lba = region.start;
    while (lba < region.end()) {
        const SectorCount n = std::min(io_sectors, region.end() - lba);
        builder.write(lba, n);
        lba += n;
    }
}

void
sequentialRead(TraceBuilder &builder, const SectorExtent &region,
               SectorCount io_sectors)
{
    panicIf(io_sectors == 0, "sequentialRead: io size must be > 0");
    Lba lba = region.start;
    while (lba < region.end()) {
        const SectorCount n = std::min(io_sectors, region.end() - lba);
        builder.read(lba, n);
        lba += n;
    }
}

namespace
{

Lba
randomAlignedOffset(Rng &rng, const SectorExtent &region,
                    SectorCount io_sectors)
{
    panicIf(region.count < io_sectors,
            "random phase: region smaller than one io");
    const std::uint64_t slots = region.count / io_sectors;
    return region.start + rng.nextUint(slots) * io_sectors;
}

} // namespace

void
randomWrite(TraceBuilder &builder, Rng &rng,
            const SectorExtent &region, std::uint64_t count,
            SectorCount io_sectors)
{
    panicIf(io_sectors == 0, "randomWrite: io size must be > 0");
    for (std::uint64_t i = 0; i < count; ++i)
        builder.write(randomAlignedOffset(rng, region, io_sectors),
                      io_sectors);
}

void
misorderedWrite(TraceBuilder &builder, const SectorExtent &run,
                SectorCount io_sectors, MisorderPattern pattern)
{
    panicIf(io_sectors == 0, "misorderedWrite: io size must be > 0");
    panicIf(run.count % io_sectors != 0,
            "misorderedWrite: run must be a whole number of ios");
    const std::uint64_t ios = run.count / io_sectors;

    auto io_extent = [&](std::uint64_t i) {
        return SectorExtent{run.start + i * io_sectors, io_sectors};
    };

    switch (pattern) {
      case MisorderPattern::Descending:
        for (std::uint64_t i = ios; i-- > 0;)
            builder.write(io_extent(i).start, io_sectors);
        break;

      case MisorderPattern::ChunkedDescending: {
        // Four-io ascending chunks, chunks descending — the hm_1
        // pattern of paper Figure 7a.
        const std::uint64_t chunk = std::min<std::uint64_t>(4, ios);
        std::vector<std::uint64_t> bases;
        for (std::uint64_t base = 0; base < ios; base += chunk)
            bases.push_back(base);
        for (auto it = bases.rbegin(); it != bases.rend(); ++it) {
            const std::uint64_t limit = std::min(*it + chunk, ios);
            for (std::uint64_t i = *it; i < limit; ++i)
                builder.write(io_extent(i).start, io_sectors);
        }
        break;
      }

      case MisorderPattern::InterleavedPair: {
        const std::uint64_t half = ios / 2;
        for (std::uint64_t i = 0; i < half; ++i) {
            builder.write(io_extent(i).start, io_sectors);
            builder.write(io_extent(half + i).start, io_sectors);
        }
        if (ios % 2 != 0)
            builder.write(io_extent(ios - 1).start, io_sectors);
        break;
      }
    }
}

void
shuffledSequentialWrite(TraceBuilder &builder, Rng &rng,
                        const SectorExtent &region,
                        SectorCount io_sectors,
                        std::uint32_t window_ios,
                        double shuffle_probability)
{
    panicIf(io_sectors == 0,
            "shuffledSequentialWrite: io size must be > 0");
    panicIf(window_ios == 0,
            "shuffledSequentialWrite: window must be > 0");
    panicIf(shuffle_probability < 0.0 || shuffle_probability > 1.0,
            "shuffledSequentialWrite: probability not in [0,1]");

    std::vector<Lba> window;
    auto flush = [&]() {
        if (rng.nextBool(shuffle_probability)) {
            for (std::size_t i = window.size(); i > 1; --i) {
                const std::size_t j = rng.nextUint(i);
                std::swap(window[i - 1], window[j]);
            }
        }
        for (const Lba lba : window) {
            const SectorCount n =
                std::min<SectorCount>(io_sectors, region.end() - lba);
            builder.write(lba, n);
        }
        window.clear();
    };

    for (Lba lba = region.start; lba < region.end();
         lba += io_sectors) {
        window.push_back(lba);
        if (window.size() >= window_ios)
            flush();
    }
    if (!window.empty())
        flush();
}

void
interleavedStreamWrite(TraceBuilder &builder, const SectorExtent &area,
                       std::uint32_t stream_count,
                       SectorCount io_sectors)
{
    panicIf(io_sectors == 0,
            "interleavedStreamWrite: io size must be > 0");
    panicIf(stream_count == 0,
            "interleavedStreamWrite: need at least one stream");
    const SectorCount per_stream = area.count / stream_count;
    panicIf(per_stream == 0,
            "interleavedStreamWrite: area smaller than stream count");

    std::vector<Lba> cursors(stream_count);
    std::vector<Lba> limits(stream_count);
    for (std::uint32_t s = 0; s < stream_count; ++s) {
        cursors[s] = area.start + s * per_stream;
        limits[s] = cursors[s] + per_stream;
    }

    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (std::uint32_t s = 0; s < stream_count; ++s) {
            if (cursors[s] >= limits[s])
                continue;
            const SectorCount n =
                std::min(io_sectors, limits[s] - cursors[s]);
            builder.write(cursors[s], n);
            cursors[s] += n;
            progressed = true;
        }
    }
}

HotSpotReader::HotSpotReader(const SectorExtent &pool,
                             SectorCount chunk_sectors, double skew,
                             Rng &rng)
    : pool_(pool), chunkSectors_(chunk_sectors),
      sampler_(std::max<std::size_t>(
                   1, static_cast<std::size_t>(pool.count /
                                               chunk_sectors)),
               skew)
{
    panicIf(chunk_sectors == 0, "HotSpotReader: chunk size must be > 0");
    panicIf(pool.count < chunk_sectors,
            "HotSpotReader: pool smaller than one chunk");
    permutation_.resize(sampler_.size());
    std::iota(permutation_.begin(), permutation_.end(), 0u);
    // Fisher-Yates with our deterministic Rng.
    for (std::size_t i = permutation_.size(); i > 1; --i) {
        const std::size_t j = rng.nextUint(i);
        std::swap(permutation_[i - 1], permutation_[j]);
    }
}

SectorExtent
HotSpotReader::chunkExtent(std::size_t i) const
{
    panicIf(i >= permutation_.size(),
            "HotSpotReader: chunk index out of range");
    return SectorExtent{pool_.start + i * chunkSectors_,
                        chunkSectors_};
}

void
HotSpotReader::emit(TraceBuilder &builder, Rng &rng,
                    std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::size_t rank = sampler_.sample(rng);
        const SectorExtent chunk = chunkExtent(permutation_[rank]);
        builder.read(chunk.start, chunk.count);
    }
}

} // namespace logseek::workloads
