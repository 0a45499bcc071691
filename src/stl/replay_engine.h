/**
 * @file
 * Per-run trace-replay engine.
 *
 * A ReplayEngine is built fresh for one (trace, config) run: it
 * instantiates the translation layer (makeTranslationLayer) and the
 * configured §IV mechanisms, serves every record and counts it into
 * the SimResult it builds. The disk head lives in the engine, so
 * host-visible and cleaning accesses share one physical position
 * and the seek definition (§II) is applied in exactly one place.
 * The Simulator facade constructs one engine per run.
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
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "disk/head.h"
#include "disk/seek_time.h"
#include "disk/zoned_device.h"
#include "stl/defrag.h"
#include "stl/finite_log.h"
#include "stl/media_cache.h"
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
     * One host-visible media access covering extent, charged to
     * event_: a seek is detected against the head position,
     * classified by type and timed by the analytic model.
     */
    void hostAccess(const SectorExtent &extent, trace::IoType type);

    /**
     * One background cleaning access (media-cache merge or log
     * garbage collection), charged to event_. It moves the same
     * head but is counted apart from host-visible seeks.
     */
    void cleaningAccess(const MediaAccess &access);

    /** Mirror one media access through device_ (non-null) and
     *  charge its outcome to event_; the device keeps the run's
     *  totals. */
    void deviceAccess(const SectorExtent &extent, trace::IoType type);

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
    std::unique_ptr<TranslationLayer> layer_;

    /** layer_ when it is that kind of layer, else null; not
     *  owned. */
    FiniteLogStructuredLayer *finiteLog_ = nullptr;
    MediaCacheLayer *mediaCache_ = nullptr;

    /** The one head every host and cleaning access moves. */
    disk::DiskHead head_;
    disk::SeekTimeModel timeModel_;

    /** Zoned-device realism layer; null unless configured. Every
     *  media access is mirrored through it. */
    std::unique_ptr<disk::ZonedDevice> device_;

    /** The §IV mechanisms; each is empty unless configured. The
     *  defragmenter also needs one of the two log layers. */
    std::optional<SelectiveCache> cache_;
    std::optional<Prefetcher> prefetch_;
    std::optional<Defragmenter> defrag_;

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
     *  keeps capacity, so steady-state requests do not allocate.
     *  Each result is traded into event_.segments or
     *  event_.defragSegments, not copied. */
    SegmentBuffer segmentScratch_;

    /** Columnar view of the records of the current pull. */
    trace::IoEventBatch batch_;

    /** The request being served, reused across requests: reset()
     *  keeps its vectors' capacity. */
    IoEvent event_;

    /** layer_->hasMaintenance(), sampled once at construction. */
    bool layerHasMaintenance_ = false;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_REPLAY_ENGINE_H
