#include "replay_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "stl/conventional.h"
#include "stl/defrag.h"
#include "stl/finite_log.h"
#include "stl/fsck.h"
#include "stl/log_structured.h"
#include "stl/media_cache.h"
#include "stl/prefetch.h"
#include "stl/selective_cache.h"
#include "telemetry/trace_writer.h"
#include "util/logging.h"

namespace logseek::stl
{

namespace
{

/**
 * Relocation callback for the defrag trigger: rewrites an LBA range
 * contiguously at the layer's write frontier, filling the caller's
 * reusable buffer with the placed segments.
 */
using RelocateFn =
    std::function<void(const SectorExtent &, SegmentBuffer &)>;

/** §IV-C selective caching: serves fragments of fragmented reads. */
class SelectiveCacheStage : public ReadStage
{
  public:
    SelectiveCacheStage(const SelectiveCacheConfig &config,
                        Accounting &accounting)
        : cache_(config), accounting_(accounting)
    {
    }

    std::string_view name() const override
    {
        return "selective-cache";
    }

    ServeOutcome
    serve(const ReadFragment &fragment, IoEvent &event) override
    {
        // Algorithm 3 caches only fragments of fragmented reads;
        // un-fragmented reads bypass the cache entirely.
        if (!fragment.fragmented)
            return ServeOutcome::Miss;
        if (cache_.lookup(fragment.physical)) {
            accounting_.cacheHit(event);
            return ServeOutcome::Hit;
        }
        accounting_.cacheMiss();
        return ServeOutcome::Miss;
    }

    void
    onFetched(const ReadFragment &fragment,
              const SectorExtent &region) override
    {
        (void)region;
        // Admit the fragment itself, not the (possibly widened)
        // fetch region: caching prefetch slack would conflate the
        // two mechanisms.
        if (fragment.fragmented)
            cache_.admit(fragment.physical);
    }

  private:
    SelectiveCache cache_;
    Accounting &accounting_;
};

/** §IV-B look-ahead-behind prefetching via the drive buffer. */
class PrefetchStage : public ReadStage
{
  public:
    PrefetchStage(const PrefetchConfig &config,
                  Accounting &accounting)
        : prefetch_(config), accounting_(accounting)
    {
    }

    std::string_view name() const override { return "prefetch"; }

    ServeOutcome
    serve(const ReadFragment &fragment, IoEvent &event) override
    {
        // The drive buffer is consulted for every read; it is only
        // populated by look-ahead-behind fetches.
        if (prefetch_.lookup(fragment.physical)) {
            accounting_.prefetchHit(event);
            return ServeOutcome::Hit;
        }
        return ServeOutcome::Miss;
    }

    SectorExtent
    widenFetch(const ReadFragment &fragment,
               const SectorExtent &region) const override
    {
        // Algorithm 2 fetches around fragments of fragmented reads
        // only.
        if (!fragment.fragmented)
            return region;
        return prefetch_.fetchRegion(fragment.physical);
    }

    void
    onFetched(const ReadFragment &fragment,
              const SectorExtent &region) override
    {
        if (fragment.fragmented)
            prefetch_.admit(region);
    }

  private:
    Prefetcher prefetch_;
    Accounting &accounting_;
};

/** Terminal stage: transfer the fetch region from the media. */
class MediaAccessStage : public ReadStage
{
  public:
    explicit MediaAccessStage(Accounting &accounting)
        : accounting_(accounting)
    {
    }

    std::string_view name() const override { return "media"; }

    ServeOutcome
    serve(const ReadFragment &fragment, IoEvent &event) override
    {
        accounting_.hostAccess(event, fragment.fetchRegion,
                               trace::IoType::Read);
        return ServeOutcome::Fetched;
    }

  private:
    Accounting &accounting_;
};

/**
 * §IV-A opportunistic defragmentation: after a fragmented read is
 * served, optionally rewrite the range at the write frontier.
 */
class DefragStage : public ReadStage
{
  public:
    DefragStage(const DefragConfig &config, RelocateFn relocate,
                Accounting &accounting)
        : defrag_(config), relocate_(std::move(relocate)),
          accounting_(accounting)
    {
    }

    std::string_view name() const override { return "defrag"; }

    ServeOutcome
    serve(const ReadFragment &fragment, IoEvent &event) override
    {
        (void)fragment;
        (void)event;
        return ServeOutcome::Miss;
    }

    void
    onReadComplete(const trace::IoRecord &record,
                   IoEvent &event) override
    {
        // Algorithm 1: write back heavily fragmented ranges at the
        // log head, paying one extra (write) seek.
        if (!defrag_.onRead(record.extent, event.segments.size()))
            return;
        relocate_(record.extent, scratch_);
        event.defragSegments.assign(scratch_.begin(),
                                    scratch_.end());
        accounting_.defragRewrite(event, record.extent.bytes());
        for (const auto &segment : event.defragSegments)
            accounting_.hostAccess(event, segment.physical(),
                                   trace::IoType::Write);
    }

  private:
    Defragmenter defrag_;
    RelocateFn relocate_;
    Accounting &accounting_;
    SegmentBuffer scratch_;
};

/**
 * Copy a record's translated segments into `out`, merging
 * physically-and-logically adjacent neighbors on the way — one pass
 * instead of translateInto + mergeInPlace + assign. The predicate
 * is exactly mergePhysicallyContiguousInPlace's, so the result is
 * byte-identical to the three-step form.
 */
void
mergeAssign(const Segment *begin, const Segment *end,
            std::vector<Segment> &out)
{
    out.clear();
    for (const Segment *s = begin; s != end; ++s) {
        if (!out.empty()) {
            Segment &last = out.back();
            if (last.pba + last.logical.count == s->pba &&
                last.logical.end() == s->logical.start) {
                last.logical.count += s->logical.count;
                last.mapped = last.mapped || s->mapped;
                continue;
            }
        }
        out.push_back(*s);
    }
}

} // namespace

void
ReadPipeline::addStage(std::unique_ptr<ReadStage> stage)
{
    panicIf(stage == nullptr, "ReadPipeline: null stage");
    StageSlot slot;
    const std::string label =
        "stage=\"" + std::string(stage->name()) + "\"";
    auto &registry = telemetry::Registry::global();
    slot.hits = &registry.counter("replay_stage_serves_total",
                                  label + ",outcome=\"hit\"");
    slot.fetches = &registry.counter("replay_stage_serves_total",
                                     label + ",outcome=\"fetched\"");
    slot.misses = &registry.counter("replay_stage_serves_total",
                                    label + ",outcome=\"miss\"");
    slot.serveLatency = &registry.histogram(
        "replay_stage_serve_latency_ns", label);
    slot.stage = std::move(stage);
    stages_.push_back(std::move(slot));
}

void
ReadPipeline::serveFragment(ReadFragment fragment, IoEvent &event)
{
    fragment.fetchRegion = fragment.physical;
    for (const auto &slot : stages_)
        fragment.fetchRegion =
            slot.stage->widenFetch(fragment, fragment.fetchRegion);

    // The branch on telemetry::enabled() keeps the clock reads
    // (and everything downstream of them) off the disabled path.
    const bool timed = telemetry::enabled();
    for (auto &slot : stages_) {
        ServeOutcome outcome;
        if (timed) {
            const auto start = std::chrono::steady_clock::now();
            outcome = slot.stage->serve(fragment, event);
            const auto ns =
                std::chrono::duration_cast<
                    std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            const std::uint64_t elapsed =
                ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
            slot.serveNs += elapsed;
            slot.serveLatency->record(elapsed);
            (outcome == ServeOutcome::Hit       ? slot.hits
             : outcome == ServeOutcome::Fetched ? slot.fetches
                                                : slot.misses)
                ->add();
        } else {
            outcome = slot.stage->serve(fragment, event);
        }
        switch (outcome) {
        case ServeOutcome::Miss:
            continue;
        case ServeOutcome::Hit:
            return;
        case ServeOutcome::Fetched:
            // The transfer populates the stages above the media;
            // notify bottom-up so admission order matches the data
            // flow.
            for (auto it = stages_.rbegin(); it != stages_.rend();
                 ++it)
                it->stage->onFetched(fragment, fragment.fetchRegion);
            return;
        }
    }
    panic("ReadPipeline: fragment fell through every stage "
          "(missing media-access stage?)");
}

void
ReadPipeline::completeRead(const trace::IoRecord &record,
                           IoEvent &event)
{
    for (const auto &slot : stages_)
        slot.stage->onReadComplete(record, event);
}

ReplayEngine::ReplayEngine(const SimConfig &config,
                           const trace::Trace &trace,
                           const std::vector<SimObserver *> &observers)
    : ReplayEngine(config,
                   std::make_unique<trace::TraceRef>(trace),
                   observers)
{
}

ReplayEngine::ReplayEngine(const SimConfig &config,
                           std::unique_ptr<trace::TraceInput> owned,
                           const std::vector<SimObserver *> &observers)
    : ReplayEngine(config, *owned, observers)
{
    // The delegated ctor stored &*owned in input_; moving the
    // unique_ptr into the member does not relocate the pointee.
    ownedInput_ = std::move(owned);
}

ReplayEngine::ReplayEngine(const SimConfig &config,
                           trace::TraceInput &input,
                           const std::vector<SimObserver *> &observers)
    : config_(config), input_(&input), observers_(observers),
      accounting_(result_, config.seekTime)
{
    result_.workload = input.name();
    result_.configLabel = config_.label();

    // Translation layer. Defragmentation needs a layer that can
    // relocate ranges to the frontier; both log variants can.
    RelocateFn relocate;
    if (config_.translation == TranslationKind::LogStructured) {
        auto ls = std::make_unique<LogStructuredLayer>(
            input.addressSpaceEnd(), config_.zones);
        relocate = [raw = ls.get()](const SectorExtent &extent,
                                    SegmentBuffer &out) {
            raw->relocateInto(extent, out);
        };
        layer_ = std::move(ls);
    } else if (config_.translation ==
               TranslationKind::FiniteLogStructured) {
        auto fl = std::make_unique<FiniteLogStructuredLayer>(
            input.addressSpaceEnd(), config_.finiteLog);
        relocate = [raw = fl.get()](const SectorExtent &extent,
                                    SegmentBuffer &out) {
            raw->relocateInto(extent, out);
        };
        cleaningMerges_ = [raw = fl.get()] {
            return raw->cleanings();
        };
        gcVictimStats_ = [raw = fl.get()] {
            return std::make_pair(raw->gcVictimLiveBytes(),
                                  raw->gcVictimSpanBytes());
        };
        layer_ = std::move(fl);
    } else if (config_.translation == TranslationKind::MediaCache) {
        auto mc = std::make_unique<MediaCacheLayer>(
            input.addressSpaceEnd(), config_.mediaCache);
        cleaningMerges_ = [raw = mc.get()] {
            return raw->mergeCount();
        };
        layer_ = std::move(mc);
    } else {
        layer_ = std::make_unique<ConventionalLayer>();
    }
    if (config_.journal != nullptr)
        layer_->attachJournal(config_.journal);

    // Zoned-device realism layer: zone geometry is matched to the
    // translation layer's physical structure so in-policy traffic
    // is genuinely in policy — the finite log's segment reuse
    // lands on zone starts (reset + rewrite), the guarded LS
    // frontier jumps from zone start to zone start, and the
    // conventional layer's in-place writes hit conventional
    // zones.
    if (config_.zonedDevice) {
        const std::uint64_t identity_end =
            input.addressSpaceEnd();
        disk::ZoneLayout layout;
        layout.maxOpenZones = config_.zonedDevice->maxOpenZones;
        std::uint64_t zone_bytes = 256 * kMiB;
        switch (config_.translation) {
        case TranslationKind::Conventional:
            layout.type = disk::ZoneType::Conventional;
            break;
        case TranslationKind::LogStructured:
            layout.type =
                disk::ZoneType::SequentialWriteRequired;
            layout.anchorSector = identity_end;
            if (config_.zones)
                zone_bytes = config_.zones->zoneBytes +
                             config_.zones->guardBytes;
            break;
        case TranslationKind::FiniteLogStructured:
            layout.type =
                disk::ZoneType::SequentialWriteRequired;
            layout.anchorSector = identity_end;
            zone_bytes = config_.finiteLog.segmentBytes;
            break;
        case TranslationKind::MediaCache:
            layout.type =
                disk::ZoneType::SequentialWritePreferred;
            layout.anchorSector = identity_end;
            break;
        }
        if (config_.zonedDevice->zoneBytes > 0)
            zone_bytes = config_.zonedDevice->zoneBytes;
        layout.zoneSectors = std::max<SectorCount>(
            1, bytesToSectors(zone_bytes));
        device_ = std::make_unique<disk::ZonedDevice>(
            layout, *config_.zonedDevice);
        device_->fillTo(identity_end);
        accounting_.attachDevice(device_.get());
    }

    // Read path: selective cache → prefetch buffer → media access
    // → defrag trigger.
    if (config_.cache)
        pipeline_.addStage(std::make_unique<SelectiveCacheStage>(
            *config_.cache, accounting_));
    if (config_.prefetch)
        pipeline_.addStage(std::make_unique<PrefetchStage>(
            *config_.prefetch, accounting_));
    pipeline_.addStage(
        std::make_unique<MediaAccessStage>(accounting_));
    if (config_.defrag && relocate)
        pipeline_.addStage(std::make_unique<DefragStage>(
            *config_.defrag, std::move(relocate), accounting_));

    layerHasMaintenance_ = layer_->hasMaintenance();
    mediaOnly_ = pipeline_.stageCount() == 1;

    readLatency_ = &telemetry::Registry::global().histogram(
        "replay_read_latency_ns");
    translateLatency_ = &telemetry::Registry::global().histogram(
        "replay_translate_latency_ns");
}

ReplayEngine::~ReplayEngine() = default;

SimResult
ReplayEngine::run()
{
    // Pull-based replay: the input hands over kPullSize records at a
    // time (an in-RAM copy, a zero-copy mmap span or a freshly
    // synthesized chunk — the loop cannot tell), so memory use is
    // bounded by one pull regardless of the workload's size.
    input_->reset();
    std::uint64_t op = 0;
    for (;;) {
        const std::size_t n = input_->next(batch_, kPullSize);
        if (n == 0)
            break;

        // The telemetry switch is sampled once per pull: the
        // media-only fast path skips the pipeline (and with it the
        // per-stage counters), so it must stay off while telemetry
        // is on.
        const bool fast_media_only =
            mediaOnly_ && !telemetry::enabled();

        for (std::size_t k = 0; k < n; ++k, ++op) {
            event_.reset();
            event_.opIndex = op;
            event_.record = batch_.record(k);
            if (event_.record.isRead())
                serveRead(fast_media_only);
            else
                serveWrite();
            for (auto *observer : observers_)
                observer->onEvent(event_);
        }
    }

    // Counters sampled once, after the loop: cleaningMerges only
    // ever grows, so the post-loop value equals the value after the
    // last request.
    if (cleaningMerges_)
        accounting_.setCleaningMerges(cleaningMerges_());
    if (gcVictimStats_) {
        const auto [live, span] = gcVictimStats_();
        accounting_.setGcVictimStats(live, span);
    }
    accounting_.setStaticFragments(layer_->staticFragmentCount());
    accounting_.finishDevice();
    emitStageSpans();

    // --paranoid: the in-memory translation state and the durable
    // journal must agree at the end of every run.
    if (config_.paranoidFsck && config_.journal != nullptr) {
        const FsckReport fsck =
            Fsck::check(*layer_, *config_.journal);
        if (!fsck.ok())
            fatal("paranoid fsck failed after replay of '" +
                  input_->name() + "': " + fsck.toString());
    }
    return std::move(result_);
}

void
ReplayEngine::emitStageSpans()
{
    // One aggregate span per stage per replay: per-fragment spans
    // would swamp the trace (millions of events), so the pipeline
    // accumulates serve time per stage and we emit it here as a
    // single back-dated span ending now.
    if (!telemetry::enabled())
        return;
    auto *writer = telemetry::globalTraceWriter();
    if (writer == nullptr)
        return;
    const std::uint64_t end = writer->nowUs();
    for (std::size_t i = 0; i < pipeline_.stageCount(); ++i) {
        telemetry::TraceSpan span;
        span.name = "stage:" + std::string(pipeline_.stageName(i));
        span.category = "replay-stage";
        span.durationUs = pipeline_.stageServeNs(i) / 1000;
        span.timestampUs =
            end > span.durationUs ? end - span.durationUs : 0;
        span.tid = telemetry::TraceEventWriter::currentTid();
        span.args = {{"workload", result_.workload},
                     {"config", result_.configLabel}};
        writer->emit(std::move(span));
    }
}

void
ReplayEngine::serveRead(bool fast_media_only)
{
    IoEvent &event = event_;
    const telemetry::ScopedTimer timer(readLatency_);
    accounting_.beginRead();
    {
        const telemetry::ScopedTimer translate(translateLatency_);
        layer_->translateReadInto(event.record.extent,
                                  segmentScratch_);
    }
    mergeAssign(segmentScratch_.begin(), segmentScratch_.end(),
                event.segments);
    accounting_.readFragmentation(event.segments.size());
    const bool fragmented = event.segments.size() >= 2;

    if (fast_media_only) {
        // Pipeline == {media access} and telemetry is off: the
        // serve pass reduces to one host access per fragment (no
        // widening, no admissions, no completion hooks), so skip
        // the stage machinery entirely.
        for (const auto &segment : event.segments)
            accounting_.hostAccess(event, segment.physical(),
                                   trace::IoType::Read);
    } else {
        for (const auto &segment : event.segments)
            pipeline_.serveFragment(
                ReadFragment{segment.physical(), fragmented,
                             segment.physical()},
                event);
        pipeline_.completeRead(event.record, event);
    }
    runMaintenance();
}

void
ReplayEngine::serveWrite()
{
    IoEvent &event = event_;
    accounting_.beginWrite(event.record.extent.bytes());
    layer_->placeWriteInto(event.record.extent, segmentScratch_);
    event.segments.assign(segmentScratch_.begin(),
                          segmentScratch_.end());
    for (const auto &segment : event.segments)
        accounting_.hostAccess(event, segment.physical(),
                               trace::IoType::Write);
    runMaintenance();
}

void
ReplayEngine::runMaintenance()
{
    if (!layerHasMaintenance_)
        return;
    // Background cleaning owed by the layer (media-cache merges,
    // log garbage collection), accounted separately from
    // host-visible seeks.
    for (const MediaAccess &access : layer_->maintenance())
        accounting_.cleaningAccess(event_, access);
}

} // namespace logseek::stl
