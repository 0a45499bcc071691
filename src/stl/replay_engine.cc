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

/**
 * Throw InvalidArgument naming record `index` of `input`, whose
 * extent is empty or overflows the address space. Out of line and
 * cold, so the replay loop keeps only the compare.
 */
[[noreturn, gnu::cold, gnu::noinline]] void
rejectExtent(const trace::TraceInput &input, std::uint64_t index,
             const SectorExtent &extent)
{
    throw StatusError(invalidArgumentError(
        "trace '" + input.name() + "': record " +
        std::to_string(index) +
        (extent.empty() ? " has an empty extent"
                        : " sector range overflows the address space")));
}

/** The `stage` label of each read-path step, in Stage order. */
constexpr std::array<const char *, 4> kStageNames = {
    "selective-cache", "prefetch", "media", "defrag"};

} // namespace

class ReplayEngine::Timer
{
  public:
    Timer(const ReplayEngine &engine,
          telemetry::HistogramSnapshot &latency)
        : latency_(engine.timed_ ? &latency : nullptr)
    {
        if (latency_ != nullptr)
            start_ = std::chrono::steady_clock::now();
    }

    Timer(const Timer &) = delete;
    Timer &operator=(const Timer &) = delete;

    ~Timer()
    {
        if (latency_ == nullptr)
            return;
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        latency_->record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }

  private:
    telemetry::HistogramSnapshot *latency_;
    std::chrono::steady_clock::time_point start_;
};

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
    if (config_.translation == TranslationKind::LogStructured) {
        auto ls = std::make_unique<LogStructuredLayer>(
            input.addressSpaceEnd(), config_.zones);
        relocate_ = [raw = ls.get()](const SectorExtent &extent,
                                     SegmentBuffer &out) {
            raw->relocateInto(extent, out);
        };
        layer_ = std::move(ls);
    } else if (config_.translation ==
               TranslationKind::FiniteLogStructured) {
        auto fl = std::make_unique<FiniteLogStructuredLayer>(
            input.addressSpaceEnd(), config_.finiteLog);
        relocate_ = [raw = fl.get()](const SectorExtent &extent,
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

    // The §IV mechanisms; the defrag trigger needs a layer that can
    // relocate.
    if (config_.cache)
        cache_.emplace(*config_.cache);
    if (config_.prefetch)
        prefetch_.emplace(*config_.prefetch);
    if (config_.defrag && relocate_)
        defrag_.emplace(*config_.defrag);

    layerHasMaintenance_ = layer_->hasMaintenance();
}

ReplayEngine::~ReplayEngine() = default;

SimResult
ReplayEngine::run()
{
    timed_ = telemetry::enabled();

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
        for (std::size_t k = 0; k < n; ++k, ++op) {
            // Catches an empty extent and one that wraps past 2^64.
            const SectorExtent &extent = batch_.extent(k);
            if (extent.start + extent.count <= extent.start)
                rejectExtent(*input_, op, extent);
            event_.reset();
            event_.opIndex = op;
            event_.record = batch_.record(k);
            if (event_.record.isRead())
                serveRead();
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

    // --paranoid: the in-memory translation state and the durable
    // journal must agree at the end of every run.
    if (config_.paranoidFsck && config_.journal != nullptr) {
        const FsckReport fsck =
            Fsck::check(*layer_, *config_.journal);
        if (!fsck.ok())
            fatal("paranoid fsck failed after replay of '" +
                  input_->name() + "': " + fsck.toString());
    }
    if (timed_)
        publishTelemetry();
    return std::move(result_);
}

void
ReplayEngine::publishTelemetry() const
{
    // Every replay counter is a function of the finished result and
    // every latency sample sits in this run's own histograms, so
    // both are published here once instead of per event.
    const SimResult &r = result_;
    auto &registry = telemetry::Registry::global();
    registry.counter("replay_requests_total", "type=\"read\"")
        .add(r.reads);
    registry.counter("replay_requests_total", "type=\"write\"")
        .add(r.writes);
    registry.counter("replay_seeks_total", "type=\"read\"")
        .add(r.readSeeks);
    registry.counter("replay_seeks_total", "type=\"write\"")
        .add(r.writeSeeks);
    registry.counter("replay_seeks_total", "type=\"cleaning\"")
        .add(r.cleaningSeeks);
    registry.counter("replay_media_bytes_total", "dir=\"read\"")
        .add(r.mediaReadBytes);
    registry.counter("replay_media_bytes_total", "dir=\"write\"")
        .add(r.mediaWriteBytes);
    registry.counter("replay_defrag_rewrites_total")
        .add(r.defragRewrites);

    // A read is one fragment unless it is fragmented. The cache is
    // offered every fragment, the buffer those the cache did not
    // serve, and the media those neither served.
    const std::uint64_t fragments =
        r.readFragments + r.reads - r.fragmentedReads;
    const std::uint64_t fetched =
        fragments - r.cacheHits - r.prefetchHits;
    const auto serves = [&](Stage stage, const char *outcome,
                            std::uint64_t n) {
        registry
            .counter("replay_stage_serves_total",
                     std::string("stage=\"") + kStageNames[stage] +
                         "\",outcome=\"" + outcome + "\"")
            .add(n);
    };
    if (cache_) {
        serves(Cache, "hit", r.cacheHits);
        serves(Cache, "miss", fragments - r.cacheHits);
    }
    if (prefetch_) {
        serves(Prefetch, "hit", r.prefetchHits);
        serves(Prefetch, "miss", fetched);
    }
    serves(Media, "fetched", fetched);

    registry.histogram("replay_read_latency_ns").merge(readLatency_);
    registry.histogram("replay_translate_latency_ns")
        .merge(translateLatency_);
    const std::array<bool, StageCount> configured = {
        cache_.has_value(), prefetch_.has_value(), true,
        defrag_.has_value()};
    for (std::size_t i = 0; i < StageCount; ++i)
        if (configured[i])
            registry
                .histogram("replay_stage_serve_latency_ns",
                           std::string("stage=\"") + kStageNames[i] +
                               "\"")
                .merge(stageLatency_[i]);

    // One aggregate span per step per replay: per-fragment spans
    // would swamp the trace (millions of events), so each step's
    // span lasts the sum of its samples and is emitted here,
    // back-dated to end now.
    auto *writer = telemetry::globalTraceWriter();
    if (writer == nullptr)
        return;
    const std::uint64_t end = writer->nowUs();
    for (std::size_t i = 0; i < StageCount; ++i) {
        if (!configured[i])
            continue;
        telemetry::TraceSpan span;
        span.name = std::string("stage:") + kStageNames[i];
        span.category = "replay-stage";
        span.durationUs = stageLatency_[i].sum / 1000;
        span.timestampUs =
            end > span.durationUs ? end - span.durationUs : 0;
        span.tid = telemetry::TraceEventWriter::currentTid();
        span.args = {{"workload", result_.workload},
                     {"config", result_.configLabel}};
        writer->emit(std::move(span));
    }
}

void
ReplayEngine::serveRead()
{
    IoEvent &event = event_;
    const Timer read(*this, readLatency_);
    accounting_.beginRead();
    {
        const Timer translate(*this, translateLatency_);
        layer_->translateReadInto(event.record.extent,
                                  segmentScratch_);
    }
    mergeAssign(segmentScratch_.begin(), segmentScratch_.end(),
                event.segments);
    accounting_.readFragmentation(event.segments.size());
    const bool fragmented = event.segments.size() >= 2;
    for (const auto &segment : event.segments)
        serveFragment(segment.physical(), fragmented);
    if (defrag_) {
        const Timer time(*this, stageLatency_[Defrag]);
        defragTrigger();
    }
    runMaintenance();
}

void
ReplayEngine::serveFragment(const SectorExtent &physical,
                            bool fragmented)
{
    // Algorithm 3 looks up fragments of fragmented reads only; the
    // fragments of unfragmented reads pass it untouched.
    if (cache_) {
        const Timer time(*this, stageLatency_[Cache]);
        if (fragmented) {
            if (cache_->lookup(physical)) {
                accounting_.cacheHit(event_);
                return;
            }
            accounting_.cacheMiss();
        }
    }
    // The drive buffer is looked up for every fragment; only
    // look-ahead-behind fetches fill it.
    if (prefetch_) {
        const Timer time(*this, stageLatency_[Prefetch]);
        if (prefetch_->lookup(physical)) {
            accounting_.prefetchHit(event_);
            return;
        }
    }
    // One media access. Algorithm 2 widens it around fragments of
    // fragmented reads only.
    const SectorExtent region = prefetch_ && fragmented
                                    ? prefetch_->fetchRegion(physical)
                                    : physical;
    {
        const Timer time(*this, stageLatency_[Media]);
        accounting_.hostAccess(event_, region, trace::IoType::Read);
    }
    // The transfer fills the buffer, then the cache, bottom-up. The
    // cache admits the fragment itself, not the fetch region:
    // caching the prefetch slack would conflate the two mechanisms.
    if (fragmented) {
        if (prefetch_)
            prefetch_->admit(region);
        if (cache_)
            cache_->admit(physical);
    }
}

void
ReplayEngine::defragTrigger()
{
    // Algorithm 1: write back heavily fragmented ranges at the log
    // head, paying one extra (write) seek.
    IoEvent &event = event_;
    if (!defrag_->onRead(event.record.extent, event.segments.size()))
        return;
    relocate_(event.record.extent, segmentScratch_);
    event.defragSegments.assign(segmentScratch_.begin(),
                                segmentScratch_.end());
    accounting_.defragRewrite(event, event.record.extent.bytes());
    for (const auto &segment : event.defragSegments)
        accounting_.hostAccess(event, segment.physical(),
                               trace::IoType::Write);
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
