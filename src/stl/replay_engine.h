/**
 * @file
 * Per-run trace-replay engine.
 *
 * A ReplayEngine is built fresh for one (trace, config) run: it
 * instantiates the translation layer, assembles the read-path
 * pipeline (selective cache → prefetch buffer → media access →
 * defrag trigger), and routes every byte and seek through a single
 * Accounting sink. The Simulator facade constructs one engine per
 * run; tests and future backends can drive the engine directly.
 *
 * Records are pulled from the input kPullSize at a time into a
 * columnar IoEventBatch (an mmap'd LSKC file fills it zero-copy)
 * and served one by one in trace order: a read through one
 * translateReadInto call and the read pipeline, a write through one
 * placeWriteInto call, each followed by any cleaning the layer owes.
 * Observers see a record's IoEvent as soon as it has been served.
 */

#ifndef LOGSEEK_STL_REPLAY_ENGINE_H
#define LOGSEEK_STL_REPLAY_ENGINE_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "disk/zoned_device.h"
#include "stl/accounting.h"
#include "stl/read_stage.h"
#include "stl/simulator.h"
#include "stl/translation_layer.h"
#include "trace/input.h"
#include "trace/io_batch.h"
#include "trace/trace.h"

namespace logseek::stl
{

/**
 * Replays one trace under one configuration. The engine owns all
 * per-run state (layer, mechanisms, head position, result), so an
 * engine is used for exactly one run() and is never shared between
 * threads.
 */
class ReplayEngine
{
  public:
    /**
     * @param config Simulation configuration (copied).
     * @param input The record stream to replay; must outlive the
     *        engine. run() resets it, so the cursor position on
     *        entry does not matter. The engine pulls batches
     *        through TraceInput::next(), so it is indifferent to
     *        whether the records live in RAM (TraceRef), in an
     *        mmap'd LSKC file (zero-copy LskcView) or are
     *        synthesized on the fly (workloads::WorkloadStream) —
     *        the SimResult is byte-identical for identical record
     *        streams.
     * @param observers Observers notified once per logical request,
     *        in trace order, as soon as the request has been served;
     *        not owned.
     */
    ReplayEngine(const SimConfig &config, trace::TraceInput &input,
                 const std::vector<SimObserver *> &observers);

    /** Convenience overload replaying an in-RAM trace (wraps it in
     *  an engine-owned TraceRef). */
    ReplayEngine(const SimConfig &config, const trace::Trace &trace,
                 const std::vector<SimObserver *> &observers);

    ~ReplayEngine();

    ReplayEngine(const ReplayEngine &) = delete;
    ReplayEngine &operator=(const ReplayEngine &) = delete;

    /** Replay the whole trace and return the aggregate result. */
    SimResult run();

    /** Records pulled from the input per TraceInput::next call. */
    static constexpr std::size_t kPullSize = 256;

    /** The assembled read path (introspection for tests). */
    const ReadPipeline &readPipeline() const { return pipeline_; }

  private:
    /** Delegation helper: the Trace overload routes through this
     *  to keep the owned TraceRef alive for the engine's life. */
    ReplayEngine(const SimConfig &config,
                 std::unique_ptr<trace::TraceInput> owned,
                 const std::vector<SimObserver *> &observers);

    /**
     * Serve event_'s read. `fast_media_only` short-circuits the
     * pipeline when it is exactly the media-access stage and
     * telemetry is off.
     */
    void serveRead(bool fast_media_only);

    /** Serve event_'s write. */
    void serveWrite();

    /**
     * Play the layer's owed background cleaning accesses, charged
     * to event_. Skipped entirely for layers with hasMaintenance()
     * == false.
     */
    void runMaintenance();

    /** Emit one aggregate trace span per read stage (end of run). */
    void emitStageSpans();

    SimConfig config_;

    /** Set only by the Trace convenience ctor: the TraceRef the
     *  engine itself owns; input_ points at it then. */
    std::unique_ptr<trace::TraceInput> ownedInput_;

    /** The record stream being replayed; never null. */
    trace::TraceInput *input_;

    std::vector<SimObserver *> observers_;

    SimResult result_;
    Accounting accounting_;
    std::unique_ptr<TranslationLayer> layer_;

    /** Zoned-device realism layer; null unless configured. Every
     *  media access Accounting sees is mirrored through it. */
    std::unique_ptr<disk::ZonedDevice> device_;

    ReadPipeline pipeline_;

    /** End-to-end latency of one logical read (telemetry). */
    telemetry::LatencyHistogram *readLatency_ = nullptr;

    /** Latency of the translate step alone (telemetry). */
    telemetry::LatencyHistogram *translateLatency_ = nullptr;

    /** Reusable per-request scratch for layer results; clear()
     *  keeps capacity, so steady-state requests do not allocate. */
    SegmentBuffer segmentScratch_;

    /** Columnar view of the records of the current pull. */
    trace::IoEventBatch batch_;

    /** The request being served, reused across requests: reset()
     *  keeps its vectors' capacity. */
    IoEvent event_;

    /** layer_->hasMaintenance(), sampled once at construction. */
    bool layerHasMaintenance_ = false;

    /** True when the pipeline is exactly the media-access stage. */
    bool mediaOnly_ = false;

    /** Samples the layer's merge/cleaning counter; may be empty. */
    std::function<std::uint64_t()> cleaningMerges_;

    /** Samples the finite log's GC victim (live, span) byte
     *  totals; may be empty. */
    std::function<std::pair<std::uint64_t, std::uint64_t>()>
        gcVictimStats_;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_REPLAY_ENGINE_H
