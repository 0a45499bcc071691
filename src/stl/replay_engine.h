/**
 * @file
 * Per-run trace-replay engine.
 *
 * A ReplayEngine is built fresh for one (trace, config) run: it
 * instantiates the translation layer and the configured §IV
 * mechanisms, and routes every byte and seek through a single
 * Accounting sink. The Simulator facade constructs one engine per
 * run.
 *
 * Records are pulled from the input kPullSize at a time into a
 * columnar IoEventBatch (an mmap'd LSKC file fills it zero-copy)
 * and served one by one in trace order: a read through one
 * translateReadInto call and the read path below, a write through
 * one placeWriteInto call, each followed by any cleaning the layer
 * owes. Observers see a record's IoEvent as soon as it has been
 * served.
 *
 * The read path serves each fragment of a read in the paper's
 * precedence: a selective-cache hit (Algorithm 3) beats a
 * drive-buffer hit (Algorithm 2), which beats a media fetch. After
 * a media fetch of a fragment of a fragmented read the buffer
 * admits the fetched region and then the cache admits the fragment;
 * after the read's last fragment the defrag trigger (Algorithm 1)
 * runs. Every configuration takes this one path, with or without
 * telemetry.
 */

#ifndef LOGSEEK_STL_REPLAY_ENGINE_H
#define LOGSEEK_STL_REPLAY_ENGINE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "disk/zoned_device.h"
#include "stl/accounting.h"
#include "stl/defrag.h"
#include "stl/prefetch.h"
#include "stl/selective_cache.h"
#include "stl/simulator.h"
#include "stl/translation_layer.h"
#include "telemetry/metrics.h"
#include "trace/input.h"
#include "trace/io_batch.h"

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

    ~ReplayEngine();

    ReplayEngine(const ReplayEngine &) = delete;
    ReplayEngine &operator=(const ReplayEngine &) = delete;

    /**
     * Replay the whole trace and return the aggregate result. When
     * telemetry is armed as the run starts, the replay's counters
     * and latency histograms are published once, at the end; a
     * run that throws publishes nothing.
     */
    SimResult run();

    /** Records pulled from the input per TraceInput::next call. */
    static constexpr std::size_t kPullSize = 256;

  private:
    /** The read path's steps, in precedence order. */
    enum Stage : std::size_t
    {
        Cache,
        Prefetch,
        Media,
        Defrag,
        StageCount,
    };

    /** Records the time until its scope ends into one of this
     *  run's latency histograms, in timed runs only. */
    class Timer;

    /** Serve event_'s read. */
    void serveRead();

    /** Serve one physical fragment of event_'s read. */
    void serveFragment(const SectorExtent &physical, bool fragmented);

    /** Algorithm 1's trigger, after event_'s read was served. */
    void defragTrigger();

    /** Serve event_'s write. */
    void serveWrite();

    /**
     * Play the layer's owed background cleaning accesses, charged
     * to event_. Skipped entirely for layers with hasMaintenance()
     * == false.
     */
    void runMaintenance();

    /** Publish the finished run's counters and latency histograms,
     *  and one aggregate trace span per configured read-path
     *  step. */
    void publishTelemetry() const;

    SimConfig config_;

    /** The record stream being replayed; never null. */
    trace::TraceInput *input_;

    std::vector<SimObserver *> observers_;

    SimResult result_;
    Accounting accounting_;
    std::unique_ptr<TranslationLayer> layer_;

    /** Zoned-device realism layer; null unless configured. Every
     *  media access Accounting sees is mirrored through it. */
    std::unique_ptr<disk::ZonedDevice> device_;

    /** The §IV mechanisms; each is empty unless configured. The
     *  defragmenter also needs a layer that can relocate. */
    std::optional<SelectiveCache> cache_;
    std::optional<Prefetcher> prefetch_;
    std::optional<Defragmenter> defrag_;

    /** Rewrites an LBA range contiguously at the layer's write
     *  frontier; set for the two log layers. */
    std::function<void(const SectorExtent &, SegmentBuffer &)>
        relocate_;

    /** telemetry::enabled(), sampled once as run() starts. */
    bool timed_ = false;

    /** This run's latency samples, kept on the run's own thread
     *  and merged into the registry once, when the run finishes:
     *  each logical read end to end, its translate step alone, and
     *  each read-path step per serve. */
    telemetry::HistogramSnapshot readLatency_;
    telemetry::HistogramSnapshot translateLatency_;
    std::array<telemetry::HistogramSnapshot, StageCount>
        stageLatency_;

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

    /** Samples the layer's merge/cleaning counter; may be empty. */
    std::function<std::uint64_t()> cleaningMerges_;

    /** Samples the finite log's GC victim (live, span) byte
     *  totals; may be empty. */
    std::function<std::pair<std::uint64_t, std::uint64_t>()>
        gcVictimStats_;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_REPLAY_ENGINE_H
