/**
 * @file
 * Reusable workload phase primitives.
 *
 * Each primitive appends one burst of requests to a TraceBuilder.
 * Named workload profiles (profiles.h) compose these primitives to
 * mimic the structural behaviors the paper observes in the MSR and
 * CloudPhysics traces: random updates that fragment later scans,
 * mis-ordered write bursts (Figure 7), temporally correlated
 * read-after-write, and skewed re-reads of fragmented hot data
 * (Figure 10).
 */

#ifndef LOGSEEK_WORKLOADS_PHASES_H
#define LOGSEEK_WORKLOADS_PHASES_H

#include <cstdint>
#include <vector>

#include "util/extent.h"
#include "util/random.h"
#include "workloads/builder.h"

namespace logseek::workloads
{

/**
 * Write region sequentially, front to back, in io_sectors chunks
 * (last chunk may be short).
 */
void sequentialWrite(TraceBuilder &builder, const SectorExtent &region,
                     SectorCount io_sectors);

/** Read region sequentially, front to back, in io_sectors chunks. */
void sequentialRead(TraceBuilder &builder, const SectorExtent &region,
                    SectorCount io_sectors);

/**
 * Issue count writes of io_sectors at uniformly random io-aligned
 * offsets inside region.
 */
void randomWrite(TraceBuilder &builder, Rng &rng,
                 const SectorExtent &region, std::uint64_t count,
                 SectorCount io_sectors);

/** Issue order for misorderedWrite runs. */
enum class MisorderPattern
{
    /** Whole run written back to front, one io at a time. */
    Descending,

    /** Ascending chunks, chunks visited in descending order. */
    ChunkedDescending,

    /** Two interleaved ascending halves (a:0, b:0, a:1, b:1, ...). */
    InterleavedPair,
};

/**
 * Write a contiguous run non-sequentially, reproducing the
 * mis-ordered write patterns of paper Figure 7. The run's data ends
 * up complete, but its temporal (and thus log) order disagrees with
 * LBA order.
 */
void misorderedWrite(TraceBuilder &builder, const SectorExtent &run,
                     SectorCount io_sectors, MisorderPattern pattern);

/**
 * Write region front to back in io_sectors chunks, but shuffle the
 * issue order inside successive windows of window_ios chunks — the
 * small-scale randomness of paper Figure 7b. Each window is
 * shuffled with probability shuffle_probability and left in order
 * otherwise, controlling how much of the region ends up disordered. Under a log the
 * region's LBA-adjacent data lands within a window-sized physical
 * neighborhood, which is exactly the situation look-ahead-behind
 * prefetching repairs.
 */
void shuffledSequentialWrite(TraceBuilder &builder, Rng &rng,
                             const SectorExtent &region,
                             SectorCount io_sectors,
                             std::uint32_t window_ios,
                             double shuffle_probability = 1.0);

/**
 * Write an area as several concurrent sequential streams: the area
 * is split into stream_count equal subregions which are written
 * round-robin, one io each. The paper (§IV-B) names interleaved
 * sequential write streams as a source of non-sequentiality: under
 * conventional placement every request seeks between streams, while
 * a log absorbs them seek-free but leaves each stream's data
 * interleaved on the medium.
 */
void interleavedStreamWrite(TraceBuilder &builder,
                            const SectorExtent &area,
                            std::uint32_t stream_count,
                            SectorCount io_sectors);

/**
 * Skewed re-reader of a pool of fixed-size chunks. The pool's
 * popularity ranking is a random permutation fixed at construction,
 * so the same chunks stay hot across bursts — the property
 * translation-aware selective caching exploits.
 */
class HotSpotReader
{
  public:
    /**
     * @param pool Region divided into equal chunks.
     * @param chunk_sectors Chunk size (reads cover one chunk).
     * @param skew Zipf exponent for chunk popularity.
     * @param rng Used to draw the fixed popularity permutation.
     */
    HotSpotReader(const SectorExtent &pool, SectorCount chunk_sectors,
                  double skew, Rng &rng);

    /** Issue count chunk reads with the fixed popularity skew. */
    void emit(TraceBuilder &builder, Rng &rng, std::uint64_t count);

    /** The extent of chunk i. */
    SectorExtent chunkExtent(std::size_t i) const;

    /** Number of chunks in the pool. */
    std::size_t chunkCount() const { return permutation_.size(); }

  private:
    SectorExtent pool_;
    SectorCount chunkSectors_;
    ZipfSampler sampler_;
    std::vector<std::uint32_t> permutation_;
};

} // namespace logseek::workloads

#endif // LOGSEEK_WORKLOADS_PHASES_H
