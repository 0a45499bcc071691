/**
 * @file
 * Streaming workload generators: bounded-memory TraceInputs that
 * synthesize records chunk by chunk instead of materializing a
 * whole Trace.
 *
 * A WorkloadStream holds one generated chunk at a time, so the
 * resident set is O(chunk), independent of the stream's total
 * record count — replaying a workload 100x larger than RAM keeps a
 * flat RSS (asserted by the ingest smoke test). Chunks come from a
 * pure function of the chunk index, which is what makes every pass
 * (repeated replays, reruns under any --jobs) reproduce the
 * identical record sequence and thus a byte-identical SimResult.
 *
 * Two spec factories cover the repo's needs:
 *  - profileStream() repeats a named profile (profiles.h) end to
 *    end with continuing timestamps — chunk 0 is bit-identical to
 *    makeWorkload() with the same options;
 *  - mixedStream() is fully analytic (no whole-chunk profile
 *    generation), mixing striped sequential writes with seeded
 *    random reads over a declared region — the >RAM smoke-test
 *    workload.
 */

#ifndef LOGSEEK_WORKLOADS_STREAM_H
#define LOGSEEK_WORKLOADS_STREAM_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "trace/input.h"
#include "trace/trace.h"
#include "workloads/profiles.h"

namespace logseek::workloads
{

/**
 * Deterministic chunk generator: must return the bit-identical
 * Trace every time it is called with the same index (timestamps
 * chunk-local, starting near 0 — the stream rebases them).
 */
using ChunkFn = std::function<trace::Trace(std::uint64_t)>;

/** Full description of one streamed workload. */
struct StreamSpec
{
    std::string name;

    /** Declared address-space end; every record of every chunk
     *  must stay inside it. profileStream() and mixedStream() make
     *  that hold by construction; the stream checks nothing. */
    Lba addressSpaceEnd = 0;

    /** Number of chunks makeChunk will be asked for: [0, chunks). */
    std::uint64_t chunks = 1;

    /** Idle gap inserted between consecutive chunks' clocks. */
    std::uint64_t chunkGapUs = 1000;

    /** Total record count over all chunks, when known (drives
     *  TraceInput::sizeHint and sweep ops accounting). */
    std::optional<std::uint64_t> totalRecords;

    ChunkFn makeChunk;
};

/**
 * TraceInput streaming a StreamSpec's chunks in order. Holds the
 * spec by value (the spec's ChunkFn must stay valid for the
 * stream's life) and exactly one generated chunk at a time.
 * Timestamps are rebased so the stream's clock is monotone across
 * chunks: each chunk starts chunkGapUs after the previous chunk's
 * last record.
 */
class WorkloadStream final : public trace::TraceInput
{
  public:
    explicit WorkloadStream(StreamSpec spec);

    const std::string &name() const override { return spec_.name; }

    Lba addressSpaceEnd() const override
    {
        return spec_.addressSpaceEnd;
    }

    std::size_t next(trace::IoEventBatch &batch,
                     std::size_t max) override;

    void reset() override;

    std::optional<std::uint64_t> sizeHint() const override
    {
        return spec_.totalRecords;
    }

  private:
    StreamSpec spec_;

    /** Index of the next chunk to generate. */
    std::uint64_t nextChunk_ = 0;

    /** The one resident chunk and the cursor inside it. */
    trace::Trace chunk_;
    std::size_t chunkPos_ = 0;

    /** Timestamp rebase applied to the resident chunk. */
    std::uint64_t baseUs_ = 0;
};

/** Shareable factory for WorkloadStreams (sweep-cell sharing). */
class StreamSource final : public trace::TraceSource
{
  public:
    explicit StreamSource(StreamSpec spec);

    const std::string &name() const override { return spec_.name; }

    std::unique_ptr<trace::TraceInput> open() const override
    {
        return std::make_unique<WorkloadStream>(spec_);
    }

    std::optional<std::uint64_t> sizeHint() const override
    {
        return spec_.totalRecords;
    }

  private:
    StreamSpec spec_;
};

/**
 * Stream a named profile `repeats` times end to end. Chunk i is
 * makeWorkload(name, options) verbatim (one chunk is generated up
 * front to learn its extent and record count, then discarded), so
 * with repeats == 1 the stream replays exactly the profile trace.
 * Memory while streaming is one profile trace regardless of
 * repeats.
 */
StreamSpec profileStream(const std::string &name,
                         const ProfileOptions &options = {},
                         std::uint64_t repeats = 1);

/**
 * Fully analytic mixed read/write stream over a region sized to
 * the chunk (no profile generation at spec-build time): each chunk
 * interleaves striped sequential writes that walk the region with
 * seeded random reads of already-written stripes. Deterministic
 * per (seed, chunk index); resident memory is one chunk.
 */
StreamSpec mixedStream(const std::string &name, std::uint64_t chunks,
                       std::uint64_t records_per_chunk,
                       std::uint64_t seed = 42);

} // namespace logseek::workloads

#endif // LOGSEEK_WORKLOADS_STREAM_H
