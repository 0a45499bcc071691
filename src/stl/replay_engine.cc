#include "replay_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "stl/fsck.h"
#include "telemetry/trace_writer.h"
#include "util/logging.h"

namespace logseek::stl
{

namespace
{

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
      layer_(makeTranslationLayer(config, input.addressSpaceEnd())),
      finiteLog_(
          dynamic_cast<FiniteLogStructuredLayer *>(layer_.get())),
      mediaCache_(dynamic_cast<MediaCacheLayer *>(layer_.get())),
      timeModel_(config.seekTime)
{
    result_.workload = input.name();
    result_.configLabel = config_.label();
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
    }

    // The §IV mechanisms; the defrag trigger rewrites at the head of
    // one of the two logs.
    if (config_.cache)
        cache_.emplace(*config_.cache);
    if (config_.prefetch)
        prefetch_.emplace(*config_.prefetch);
    if (config_.defrag &&
        (config_.translation == TranslationKind::LogStructured ||
         finiteLog_ != nullptr))
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

    // Counters sampled once, after the loop: each only ever grows,
    // so the post-loop value equals the value after the last
    // request.
    if (finiteLog_ != nullptr) {
        result_.cleaningMerges = finiteLog_->cleanings();
        result_.gcVictimLiveBytes = finiteLog_->gcVictimLiveBytes();
        result_.gcVictimSpanBytes = finiteLog_->gcVictimSpanBytes();
    } else if (mediaCache_ != nullptr) {
        result_.cleaningMerges = mediaCache_->mergeCount();
    }
    result_.staticFragments = layer_->staticFragmentCount();
    if (device_ != nullptr) {
        const disk::DeviceStats &stats = device_->stats();
        result_.deviceReadRetries = stats.readRetries;
        result_.deviceRecoveredSectors = stats.recoveredSectors;
        result_.deviceFailedReadSectors = stats.failedReadSectors;
        result_.deviceDegradedReads = stats.degradedReads;
        result_.deviceFailedWriteSectors = stats.failedWriteSectors;
        result_.deviceZoneResets = stats.zoneResets;
        result_.deviceWpViolations = stats.wpViolations;
        result_.deviceOutOfPolicyWrites = stats.outOfPolicyWrites;
        result_.deviceGrownDefects = stats.grownDefects;
        const auto census = device_->zones().conditionCensus();
        result_.deviceReadOnlyZones = census[static_cast<std::size_t>(
            disk::ZoneCondition::ReadOnly)];
        result_.deviceOfflineZones = census[static_cast<std::size_t>(
            disk::ZoneCondition::Offline)];
        result_.deviceErrorLogDropped =
            device_->readErrorLog().dropped();
        device_->publishZoneGauges();
    }

    // The in-memory translation state and the durable journal must
    // agree at the end of the run.
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
    ++result_.reads;
    {
        const Timer translate(*this, translateLatency_);
        layer_->translateReadInto(event.record.extent,
                                  segmentScratch_);
    }
    // The merged runs become the event's by trading buffers; copying
    // them back out of the buffer the merge has just written slowed
    // plain-LS replays measurably.
    mergePhysicallyContiguousInPlace(segmentScratch_);
    segmentScratch_.swap(event.segments);
    const bool fragmented = event.segments.size() >= 2;
    if (fragmented) {
        ++result_.fragmentedReads;
        result_.readFragments += event.segments.size();
    }
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
                ++event_.cacheHits;
                ++result_.cacheHits;
                return;
            }
            ++result_.cacheMisses;
        }
    }
    // The drive buffer is looked up for every fragment; only
    // look-ahead-behind fetches fill it.
    if (prefetch_) {
        const Timer time(*this, stageLatency_[Prefetch]);
        if (prefetch_->lookup(physical)) {
            ++event_.prefetchHits;
            ++result_.prefetchHits;
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
        hostAccess(region, trace::IoType::Read);
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
    // head, paying one extra (write) seek. The finite log sends the
    // rewrite to its coldest stream; on the LS log it is a write.
    IoEvent &event = event_;
    const SectorExtent &extent = event.record.extent;
    if (!defrag_->onRead(extent, event.segments.size()))
        return;
    if (finiteLog_ != nullptr)
        finiteLog_->relocateInto(extent, segmentScratch_);
    else
        layer_->placeWriteInto(extent, segmentScratch_);
    segmentScratch_.swap(event.defragSegments);
    event.defragRewrite = true;
    ++result_.defragRewrites;
    result_.defragBytes += extent.bytes();
    for (const auto &segment : event.defragSegments)
        hostAccess(segment.physical(), trace::IoType::Write);
}

void
ReplayEngine::serveWrite()
{
    IoEvent &event = event_;
    ++result_.writes;
    result_.hostWriteBytes += event.record.extent.bytes();
    layer_->placeWriteInto(event.record.extent, segmentScratch_);
    segmentScratch_.swap(event.segments);
    for (const auto &segment : event.segments)
        hostAccess(segment.physical(), trace::IoType::Write);
    runMaintenance();
}

void
ReplayEngine::runMaintenance()
{
    if (!layerHasMaintenance_)
        return;
    // Background cleaning owed by the layer (media-cache merges,
    // log garbage collection), counted apart from host-visible
    // seeks.
    for (const MediaAccess &access : layer_->maintenance())
        cleaningAccess(access);
}

void
ReplayEngine::hostAccess(const SectorExtent &extent,
                         trace::IoType type)
{
    const disk::SeekInfo info = head_.access(extent, type);
    event_.mediaBytes += extent.bytes();
    if (info.seeked) {
        event_.seeks.push_back(info);
        if (type == trace::IoType::Read)
            ++result_.readSeeks;
        else
            ++result_.writeSeeks;
        result_.seekTimeSec +=
            timeModel_.seekSeconds(info.distanceBytes);
    }
    if (type == trace::IoType::Read)
        result_.mediaReadBytes += extent.bytes();
    else
        result_.mediaWriteBytes += extent.bytes();
    if (device_ != nullptr)
        deviceAccess(extent, type);
}

void
ReplayEngine::cleaningAccess(const MediaAccess &access)
{
    const disk::SeekInfo info =
        head_.access(access.physical, access.type);
    if (info.seeked) {
        ++result_.cleaningSeeks;
        ++event_.cleaningSeeks;
        result_.seekTimeSec +=
            timeModel_.seekSeconds(info.distanceBytes);
    }
    if (access.type == trace::IoType::Read)
        result_.cleaningReadBytes += access.physical.bytes();
    else
        result_.cleaningWriteBytes += access.physical.bytes();
    if (device_ != nullptr)
        deviceAccess(access.physical, access.type);
}

void
ReplayEngine::deviceAccess(const SectorExtent &extent,
                           trace::IoType type)
{
    if (type == trace::IoType::Read) {
        const disk::DeviceReadResult read = device_->read(extent);
        event_.deviceRetries += read.retries;
        event_.deviceFailedSectors += read.failedSectors;
    } else {
        event_.deviceFailedSectors +=
            device_->write(extent).failedSectors;
    }
}

} // namespace logseek::stl
