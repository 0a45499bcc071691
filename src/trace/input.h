/**
 * @file
 * Pull-based trace inputs: the abstraction that lets the replay
 * core consume a workload without knowing where its records live.
 *
 * A TraceInput is a forward cursor over an ordered record stream,
 * served in columnar IoEventBatch blocks:
 *
 *  - TraceRef wraps an in-RAM Trace (the historical path),
 *  - LskcView (trace/lskc.h) binds batches straight into an mmap'd
 *    columnar file — zero copy, zero decode,
 *  - workloads::WorkloadStream (workloads/stream.h) synthesizes
 *    records chunk by chunk with bounded memory.
 *
 * reset() rewinds to the first record, so one input can be replayed
 * more than once. Inputs are single-cursor and not thread-safe;
 * sharing a workload between concurrent sweep cells goes through
 * TraceSource, an immutable factory whose open() hands each cell its
 * own cursor.
 */

#ifndef LOGSEEK_TRACE_INPUT_H
#define LOGSEEK_TRACE_INPUT_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "trace/io_batch.h"
#include "trace/trace.h"

namespace logseek::trace
{

/**
 * A forward, resettable cursor over one workload's records. The
 * replay engine calls next() until it returns 0; the records seen
 * across a full pass are the workload, bit-for-bit — every
 * implementation must reproduce the identical sequence on every
 * pass, which is what makes replay from any input byte-identical
 * to the in-RAM Trace path.
 */
class TraceInput
{
  public:
    virtual ~TraceInput() = default;

    /** Workload name (used in results and error messages). */
    virtual const std::string &name() const = 0;

    /**
     * One past the highest sector any record of the stream touches
     * (the address-space size translation layers are built with).
     * Must be known up front, before the records are pulled.
     */
    virtual Lba addressSpaceEnd() const = 0;

    /**
     * Fill `batch` with the next at-most-`max` records and advance
     * the cursor. Returns the batch size; 0 means the stream is
     * exhausted (the batch is left unspecified then). `max` is at
     * least 1.
     */
    virtual std::size_t next(IoEventBatch &batch,
                             std::size_t max) = 0;

    /** Rewind to the first record. */
    virtual void reset() = 0;

    /** Total record count when cheaply known (in-RAM and mmap'd
     *  inputs); nullopt for unbounded/streamed inputs. */
    virtual std::optional<std::uint64_t> sizeHint() const
    {
        return std::nullopt;
    }
};

/** TraceInput over a borrowed in-RAM Trace (must outlive it). */
class TraceRef final : public TraceInput
{
  public:
    explicit TraceRef(const Trace &trace) : trace_(&trace) {}

    const std::string &name() const override
    {
        return trace_->name();
    }
    Lba addressSpaceEnd() const override
    {
        return trace_->addressSpaceEnd();
    }

    std::size_t
    next(IoEventBatch &batch, std::size_t max) override
    {
        const std::size_t n =
            std::min(max, trace_->size() - pos_);
        if (n == 0)
            return 0;
        batch.buildFrom(*trace_, pos_, pos_ + n);
        pos_ += n;
        return n;
    }

    void reset() override { pos_ = 0; }

    std::optional<std::uint64_t> sizeHint() const override
    {
        return trace_->size();
    }

  private:
    const Trace *trace_;
    std::size_t pos_ = 0;
};

/**
 * A shareable, immutable workload: many sweep cells hold one
 * source and each open()s a private cursor. Implementations must
 * make open() const-thread-safe (callable concurrently) and every
 * opened input must yield the identical record sequence —
 * replaying any cursor is deterministic regardless of --jobs.
 *
 * Sources are shared via shared_ptr<const TraceSource>; the sweep
 * runner drops its reference when the last dependent cell
 * completes, which is what releases an in-RAM trace (or unmaps a
 * file) mid-sweep instead of at sweep end.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    virtual const std::string &name() const = 0;

    /** A fresh cursor positioned at the first record. */
    virtual std::unique_ptr<TraceInput> open() const = 0;

    /** Total record count when cheaply known. */
    virtual std::optional<std::uint64_t> sizeHint() const = 0;

    /**
     * The materialized Trace behind this source, or null when the
     * source is not RAM-backed. Lets config factories and analysis
     * hooks that need whole-trace access (ConfigSpec::make,
     * SweepOptions::onTrace) keep working for in-memory workloads
     * without forcing streamed ones to materialize.
     */
    virtual const Trace *memoryTrace() const { return nullptr; }
};

/** TraceSource owning an in-RAM Trace. */
class InMemoryTraceSource final : public TraceSource
{
  public:
    explicit InMemoryTraceSource(Trace trace)
        : trace_(std::move(trace))
    {
    }

    const std::string &name() const override
    {
        return trace_.name();
    }

    std::unique_ptr<TraceInput> open() const override
    {
        return std::make_unique<TraceRef>(trace_);
    }

    std::optional<std::uint64_t> sizeHint() const override
    {
        return trace_.size();
    }

    const Trace *memoryTrace() const override { return &trace_; }

  private:
    Trace trace_;
};

/**
 * Drain an input into an in-RAM Trace (resetting first). Intended
 * for converters and tests; defeats the purpose of streamed inputs
 * on workloads that do not fit in memory.
 */
Trace materialize(TraceInput &input);

} // namespace logseek::trace

#endif // LOGSEEK_TRACE_INPUT_H
