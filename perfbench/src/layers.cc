/**
 * @file
 * The per-layer ledger of the traced run.
 *
 * For every profile of the workload, each layer is driven alone, on
 * a fresh instance, through its public API with the input stream
 * the full replay fed it:
 *
 *  - trace: TraceInput::next over the profile's input, every column
 *    of every record consumed; LskcSource::tryOpen of an LSKC copy;
 *  - stl translate: translateReadInto + mergePhysicallyContiguous-
 *    InPlace and placeWriteInto on a layer of each kind;
 *  - stl cache / prefetch / defrag: SelectiveCache, Prefetcher and
 *    Defragmenter over the fragments of the captured LS replay;
 *  - stl gc: FiniteLogStructuredLayer::maintenance() after every
 *    record (greedy/1 stream and cost-benefit/2 streams);
 *  - disk: DiskHead::access + SeekTimeModel::seekSeconds, and
 *    ZonedDevice::read/write, over the media accesses.
 *
 * The streams come from IoEvents captured through a SimObserver
 * during a full Simulator::run of the same cell. Where a standalone
 * replay corresponds to a cell the workload runs, its counts must
 * equal that cell's SimResult exactly; a mismatch is an error.
 *
 * Layers whose calls interleave with state changes (translate, gc)
 * are timed with chained steady_clock reads (per run of same-type
 * records for translate alone, per call with gc), minus the
 * calibrated cost of one clock read per interval. Stream layers
 * (cache, prefetch, defrag, head, zoned, trace) are timed as one
 * loop over a pre-built input.
 */

#include <chrono>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <span>

#include "bench.h"
#include "disk/head.h"
#include "disk/seek_time.h"
#include "disk/zoned_device.h"
#include "stl/conventional.h"
#include "stl/defrag.h"
#include "stl/finite_log.h"
#include "stl/log_structured.h"
#include "stl/prefetch.h"
#include "stl/selective_cache.h"
#include "trace/lskc.h"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Defeats dead-code elimination of consumed record fields. */
volatile std::uint64_t g_sink = 0;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Cost of one steady_clock read in seconds (median of 5). */
double
clockCostSec()
{
    static const double cost = [] {
        std::vector<double> samples;
        constexpr int kReads = 200000;
        for (int r = 0; r < 5; ++r) {
            const auto start = Clock::now();
            auto last = start;
            for (int i = 0; i < kReads; ++i)
                last = Clock::now();
            samples.push_back(secondsBetween(start, last) / kReads);
        }
        return median(samples);
    }();
    return cost;
}

/** Time attributed to one kind of call by chained clock reads. */
struct Bucket
{
    double sec = 0.0;
    std::uint64_t intervals = 0;

    /** The time minus one clock read per interval, floored at 0. */
    double
    corrected() const
    {
        return std::max(0.0, sec - static_cast<double>(intervals) *
                                       clockCostSec());
    }
};

/** Attributes the time since the previous mark to a bucket. */
class Chain
{
  public:
    Chain() : last_(Clock::now()) {}

    void
    mark(Bucket &bucket)
    {
        const auto now = Clock::now();
        bucket.sec += secondsBetween(last_, now);
        ++bucket.intervals;
        last_ = now;
    }

  private:
    Clock::time_point last_;
};

/** One media access, in replay order. */
struct Access
{
    SectorExtent extent;
    trace::IoType type = trace::IoType::Read;
    bool cleaning = false;
};

/** The per-request records and segments of one full replay. */
struct Capture
{
    std::vector<trace::IoRecord> records;
    std::vector<std::size_t> segEnd;
    std::vector<stl::Segment> segs;

    std::span<const stl::Segment>
    segments(std::size_t i) const
    {
        const std::size_t begin = i == 0 ? 0 : segEnd[i - 1];
        return {segs.data() + begin, segEnd[i] - begin};
    }
};

class CaptureObserver final : public stl::SimObserver
{
  public:
    explicit CaptureObserver(Capture &out) : out_(out) {}

    void
    onEvent(const stl::IoEvent &event) override
    {
        out_.records.push_back(event.record);
        out_.segs.insert(out_.segs.end(), event.segments.begin(),
                         event.segments.end());
        out_.segEnd.push_back(out_.segs.size());
    }

  private:
    Capture &out_;
};

/** Host media accesses of a replay with no read-path mechanism. */
std::vector<Access>
hostAccesses(const Capture &capture)
{
    std::vector<Access> out;
    for (std::size_t i = 0; i < capture.records.size(); ++i)
        for (const auto &segment : capture.segments(i))
            out.push_back({segment.physical(), capture.records[i].type,
                           false});
    return out;
}

struct HeadCounts
{
    std::uint64_t readSeeks = 0;
    std::uint64_t writeSeeks = 0;
    std::uint64_t cleaningSeeks = 0;
    double seekTimeSec = 0.0;
    double sec = 0.0;
};

HeadCounts
replayHead(const std::vector<Access> &stream,
           const disk::SeekTimeParams &params)
{
    disk::DiskHead head;
    const disk::SeekTimeModel model(params);
    HeadCounts out;
    const auto start = Clock::now();
    for (const Access &access : stream) {
        const disk::SeekInfo info = head.access(access.extent, access.type);
        if (!info.seeked)
            continue;
        if (access.cleaning)
            ++out.cleaningSeeks;
        else if (access.type == trace::IoType::Read)
            ++out.readSeeks;
        else
            ++out.writeSeeks;
        out.seekTimeSec += model.seekSeconds(info.distanceBytes);
    }
    out.sec = secondsBetween(start, Clock::now());
    return out;
}

/** Translate-layer (and GC) replay outcome. */
struct TranslateRun
{
    Bucket read;
    Bucket write;
    Bucket gc;
    Bucket glue;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t fragmentedReads = 0;
    std::uint64_t readFragments = 0;
    std::uint64_t readSegments = 0;
    std::uint64_t hostWriteBytes = 0;
    std::uint64_t cleaningWriteBytes = 0;
    std::vector<Access> stream;
};

/**
 * Drive `layer` with every record in order. With `maintenance`, the
 * layer's owed cleaning is collected after every record (as the
 * replay engine does), every call is timed on its own and the full
 * media-access stream is kept. Without it, one interval covers each
 * run of same-type records, which keeps the clock reads (and their
 * cost) off most calls.
 */
TranslateRun
replayTranslate(stl::TranslationLayer &layer,
                const std::vector<trace::IoRecord> &records,
                bool maintenance)
{
    TranslateRun out;
    stl::SegmentBuffer buffer;
    Chain chain;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const trace::IoRecord &record = records[i];
        const bool mark = maintenance || i + 1 == records.size() ||
                          records[i + 1].type != record.type;
        if (record.isRead()) {
            layer.translateReadInto(record.extent, buffer);
            stl::mergePhysicallyContiguousInPlace(buffer);
            if (mark)
                chain.mark(out.read);
            ++out.reads;
            out.readSegments += buffer.size();
            if (buffer.size() >= 2) {
                ++out.fragmentedReads;
                out.readFragments += buffer.size();
            }
        } else {
            layer.placeWriteInto(record.extent, buffer);
            if (mark)
                chain.mark(out.write);
            ++out.writes;
            out.hostWriteBytes += record.extent.bytes();
        }
        if (!maintenance)
            continue;
        for (const auto &segment : buffer)
            out.stream.push_back({segment.physical(), record.type, false});
        chain.mark(out.glue);
        const std::vector<stl::MediaAccess> owed = layer.maintenance();
        chain.mark(out.gc);
        for (const stl::MediaAccess &access : owed) {
            out.stream.push_back({access.physical, access.type, true});
            if (access.type == trace::IoType::Write)
                out.cleaningWriteBytes += access.physical.bytes();
        }
        chain.mark(out.glue);
    }
    return out;
}

/** Per-layer seconds summed over the workload's profiles. */
struct LayerTotals
{
    double traceNext = 0.0;
    double lskcOpen = 0.0;
    std::uint64_t records = 0;

    std::map<std::string, double> translateRead;
    std::map<std::string, double> translateWrite;
    std::map<std::string, double> gc;
    std::map<std::string, double> head;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readSegments = 0;
    std::uint64_t mapEntries = 0;

    double cache = 0.0;
    std::uint64_t cacheLookups = 0;
    std::uint64_t cacheHits = 0;

    double prefetch = 0.0;
    std::uint64_t prefetchLookups = 0;
    std::uint64_t prefetchHits = 0;

    double defrag = 0.0;
    std::uint64_t defragReads = 0;
    std::uint64_t defragFragmented = 0;
    std::uint64_t defragRewrites = 0;

    /** Read stages over the LS+all cell's own fragments. */
    double allCache = 0.0;
    double allPrefetch = 0.0;
    double allDefrag = 0.0;

    std::uint64_t headAccesses = 0;
    std::uint64_t headSeeks = 0;

    double zoned = 0.0;
    std::uint64_t zonedAccesses = 0;

    std::map<std::string, std::uint64_t> gcWrites;
    std::map<std::string, std::uint64_t> gcHostWriteBytes;
    std::map<std::string, std::uint64_t> gcCleaningWriteBytes;
    std::map<std::string, std::uint64_t> gcCleaningSeeks;
    std::map<std::string, std::uint64_t> gcVictimLive;
    std::map<std::string, std::uint64_t> gcVictimSpan;

    std::map<std::string, double> replaySec;
    std::map<std::string, std::uint64_t> replayRecords;
};

/** Run `fn` `reps` times and return the median of its seconds. */
double
medianSeconds(int reps, const std::function<double()> &fn)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r)
        samples.push_back(fn());
    return median(samples);
}

/** Repetitions of each timed replay except the finite-log ones,
 *  which are the longest (the median is kept). */
constexpr int kReps = 3;

class Ledger
{
  public:
    Ledger(const Prepared &prepared,
           const std::map<std::string, stl::SimResult> &reference,
           const std::string &dir, SpanLog &spans, std::uint64_t parent)
        : prepared_(prepared), reference_(reference), dir_(dir),
          spans_(spans), parent_(parent)
    {
    }

    LedgerResult run();

  private:
    bool
    has(Cfg cfg) const
    {
        for (const Cfg c : prepared_.def->configs)
            if (c == cfg)
                return true;
        return false;
    }

    /** The validated result of a cell the workload runs, or null. */
    const stl::SimResult *
    ref(const Profile &profile, Cfg cfg) const
    {
        const auto it = reference_.find(profile.name + "/" + cfgName(cfg));
        return it == reference_.end() ? nullptr : &it->second;
    }

    template <class T>
    void
    check(const std::string &what, T standalone, T full)
    {
        ++out_.checks;
        if (standalone == full)
            return;
        ++out_.mismatches;
        std::cerr << "perfbench: cross-check failed: " << what
                  << ": standalone " << standalone << " != replay " << full
                  << "\n";
    }

    /** Open a span under `parent`; returns its id. */
    std::uint64_t
    begin(const std::string &name, const std::string &category,
          std::uint64_t parent)
    {
        const std::uint64_t id = spans_.newId();
        open_.push_back({name, category, nowSec(), 0.0, id, parent, 0});
        return id;
    }

    void
    end()
    {
        Span span = std::move(open_.back());
        open_.pop_back();
        span.endSec = nowSec();
        spans_.add(std::move(span));
    }

    /** Seek counts and seek time of a head replay against `r`. */
    void checkSeeks(const std::string &name, const HeadCounts &head,
                    const stl::SimResult &r);

    /** The disk head over a captured cell's host media accesses. */
    void headLayer(const Profile &profile, Cfg cfg,
                   const Capture &capture);

    /** Full replay of one cell with an event capture attached. */
    Capture capture(const Profile &profile, Cfg cfg);

    void profileLedger(const Profile &profile, std::uint64_t span);
    void traceLayer(const Profile &profile);
    void translateLayers(const Profile &profile, const Capture &ls);
    void finiteLog(const Profile &profile, Cfg cfg,
                   const std::vector<trace::IoRecord> &records);
    void stages(const Profile &profile, const Capture &ls,
                const Capture *defrag, std::uint64_t span);
    void replays(const Profile &profile);
    void emit();

    const Prepared &prepared_;
    const std::map<std::string, stl::SimResult> &reference_;
    const std::string &dir_;
    SpanLog &spans_;
    std::uint64_t parent_;
    std::vector<Span> open_;
    LayerTotals t_;
    LedgerResult out_;
};

Capture
Ledger::capture(const Profile &profile, Cfg cfg)
{
    Capture capture;
    capture.records.reserve(profile.records);
    capture.segEnd.reserve(profile.records);
    CaptureObserver observer(capture);
    stl::Simulator simulator(makeConfig(cfg, profile));
    simulator.addObserver(&observer);
    const auto input = profile.source->open();
    const StatusOr<stl::SimResult> result = simulator.tryRun(*input);
    const std::string what =
        profile.name + "/" + cfgName(cfg) + " captured replay digest";
    const stl::SimResult *reference = ref(profile, cfg);
    if (!result.ok()) {
        std::cerr << "perfbench: " << what << ": "
                  << result.status().toString() << "\n";
        ++out_.mismatches;
    } else if (reference != nullptr) {
        check(what, digest(*result), digest(*reference));
    }
    return capture;
}

void
Ledger::traceLayer(const Profile &profile)
{
    // TraceInput::next with every column of every record consumed.
    const auto input = profile.source->open();
    std::uint64_t consumed = 0;
    t_.traceNext += medianSeconds(kReps, [&] {
        trace::IoEventBatch batch;
        std::uint64_t sum = 0;
        consumed = 0;
        input->reset();
        const auto start = Clock::now();
        for (;;) {
            const std::size_t n = input->next(batch, 256);
            if (n == 0)
                break;
            for (std::size_t k = 0; k < n; ++k) {
                const SectorExtent &extent = batch.extent(k);
                sum += extent.start + extent.count + batch.timestamp(k) +
                       static_cast<std::uint64_t>(batch.type(k));
            }
            consumed += n;
        }
        const double sec = secondsBetween(start, Clock::now());
        g_sink = g_sink + sum;
        return sec;
    });
    check(profile.name + " trace records", consumed, profile.records);
    t_.records += profile.records;

    // LskcSource::tryOpen (full CRC validation) of an LSKC copy.
    const std::string path = dir_ + "/" + profile.name + ".ledger.lskc";
    const auto copy_input = profile.source->open();
    const Status written = trace::tryWriteLskcFile(path, *copy_input);
    if (!written.ok()) {
        std::cerr << "perfbench: " << written.toString() << "\n";
        ++out_.mismatches;
        return;
    }
    t_.lskcOpen += medianSeconds(kReps, [&] {
        const auto start = Clock::now();
        const auto source = trace::LskcSource::tryOpen(path);
        const double sec = secondsBetween(start, Clock::now());
        if (!source.ok()) {
            std::cerr << "perfbench: " << source.status().toString()
                      << "\n";
            ++out_.mismatches;
        }
        return sec;
    });
    std::filesystem::remove(path);
}

void
Ledger::checkSeeks(const std::string &name, const HeadCounts &head,
                   const stl::SimResult &r)
{
    check(name + "readSeeks", head.readSeeks, r.readSeeks);
    check(name + "writeSeeks", head.writeSeeks, r.writeSeeks);
    check(name + "cleaningSeeks", head.cleaningSeeks, r.cleaningSeeks);
    check(name + "seekTimeSec", head.seekTimeSec, r.seekTimeSec);
}

void
Ledger::headLayer(const Profile &profile, Cfg cfg, const Capture &capture)
{
    const std::string key = cfgName(cfg);
    const std::vector<Access> stream = hostAccesses(capture);
    const disk::SeekTimeParams params = makeConfig(cfg, profile).seekTime;
    HeadCounts head;
    t_.head[key] += medianSeconds(kReps, [&] {
        head = replayHead(stream, params);
        return head.sec;
    });
    if (cfg == Cfg::Ls) {
        t_.headAccesses += stream.size();
        t_.headSeeks += head.readSeeks + head.writeSeeks;
    }
    if (const auto *r = ref(profile, cfg))
        checkSeeks(profile.name + "/" + key + " ", head, *r);
}

void
Ledger::translateLayers(const Profile &profile, const Capture &ls)
{
    // Median of kReps fresh layers; the counts are identical.
    std::vector<double> reads;
    std::vector<double> writes;
    TranslateRun run;
    std::size_t entries = 0;
    for (int r = 0; r < kReps; ++r) {
        stl::LogStructuredLayer layer(
            profile.source->open()->addressSpaceEnd());
        run = replayTranslate(layer, ls.records, false);
        reads.push_back(run.read.corrected());
        writes.push_back(run.write.corrected());
        entries = layer.extentMap().entryCount();
    }
    t_.translateRead["ls"] += median(reads);
    t_.translateWrite["ls"] += median(writes);
    t_.reads += run.reads;
    t_.writes += run.writes;
    t_.readSegments += run.readSegments;
    t_.mapEntries += entries;
    if (const auto *r = ref(profile, Cfg::Ls)) {
        check(profile.name + "/ls fragmentedReads", run.fragmentedReads,
              r->fragmentedReads);
        check(profile.name + "/ls readFragments", run.readFragments,
              r->readFragments);
    }
    headLayer(profile, Cfg::Ls, ls);

    if (has(Cfg::Nols)) {
        const Capture nols = capture(profile, Cfg::Nols);
        stl::ConventionalLayer layer;
        const TranslateRun identity =
            replayTranslate(layer, nols.records, false);
        t_.translateRead["nols"] += identity.read.corrected();
        t_.translateWrite["nols"] += identity.write.corrected();
        headLayer(profile, Cfg::Nols, nols);
    }
}

void
Ledger::finiteLog(const Profile &profile, Cfg cfg,
                  const std::vector<trace::IoRecord> &records)
{
    const std::string key = cfgName(cfg);
    // Workloads without a finite-log cell size the log here, off
    // their set-up path.
    Profile sized = profile;
    if (!has(Cfg::FlGreedy) && !has(Cfg::FlCb2Zoned))
        sized.finiteLog = sizedFiniteLog(records);
    const stl::SimConfig config = makeConfig(cfg, sized);
    const Lba space = profile.source->open()->addressSpaceEnd();

    stl::FiniteLogStructuredLayer layer(space, config.finiteLog);
    const TranslateRun run = replayTranslate(layer, records, true);
    t_.translateRead[key] += run.read.corrected();
    t_.translateWrite[key] += run.write.corrected();
    t_.gc[key] += run.gc.corrected();

    const HeadCounts head = replayHead(run.stream, config.seekTime);
    t_.head[key] += head.sec;
    t_.gcWrites[key] += run.writes;
    t_.gcHostWriteBytes[key] += run.hostWriteBytes;
    t_.gcCleaningWriteBytes[key] += run.cleaningWriteBytes;
    t_.gcCleaningSeeks[key] += head.cleaningSeeks;
    t_.gcVictimLive[key] += layer.gcVictimLiveBytes();
    t_.gcVictimSpan[key] += layer.gcVictimSpanBytes();

    const stl::SimResult *r = ref(profile, cfg);
    const std::string name = profile.name + "/" + key + " ";
    if (r != nullptr) {
        checkSeeks(name, head, *r);
        check(name + "cleaningMerges", layer.cleanings(), r->cleaningMerges);
        check(name + "cleaningWriteBytes", run.cleaningWriteBytes,
              r->cleaningWriteBytes);
        check(name + "gcVictimLiveBytes", layer.gcVictimLiveBytes(),
              r->gcVictimLiveBytes);
    }
    if (!config.zonedDevice)
        return;

    // The device mirror, laid out as the replay engine lays it out
    // for a finite log: one zone per log segment from the end of
    // the identity region.
    disk::ZoneLayout layout;
    layout.type = disk::ZoneType::SequentialWriteRequired;
    layout.maxOpenZones = config.zonedDevice->maxOpenZones;
    layout.anchorSector = space;
    layout.zoneSectors = std::max<SectorCount>(
        1, bytesToSectors(config.zonedDevice->zoneBytes > 0
                              ? config.zonedDevice->zoneBytes
                              : config.finiteLog.segmentBytes));
    disk::ZonedDevice device(layout, *config.zonedDevice);
    device.fillTo(space);
    std::uint64_t resets = 0;
    std::uint64_t violations = 0;
    std::uint64_t out_of_policy = 0;
    const auto start = Clock::now();
    for (const Access &access : run.stream) {
        if (access.type == trace::IoType::Read) {
            device.read(access.extent);
        } else {
            const disk::DeviceWriteResult write = device.write(access.extent);
            resets += write.zoneResets;
            violations += write.wpViolations;
            out_of_policy += write.outOfPolicy;
        }
    }
    t_.zoned += secondsBetween(start, Clock::now());
    t_.zonedAccesses += run.stream.size();
    if (r != nullptr) {
        check(name + "deviceZoneResets", resets, r->deviceZoneResets);
        check(name + "deviceWpViolations", violations, r->deviceWpViolations);
        check(name + "deviceOutOfPolicyWrites", out_of_policy,
              r->deviceOutOfPolicyWrites);
    }
}

/** Read-stage replays over one captured cell. */
struct StageRun
{
    double cacheSec = 0.0;
    double prefetchSec = 0.0;
    double defragSec = 0.0;
    std::uint64_t cacheLookups = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t prefetchLookups = 0;
    std::uint64_t prefetchHits = 0;
    std::uint64_t defragReads = 0;
    std::uint64_t defragFragmented = 0;
    std::uint64_t defragRewrites = 0;
};

/**
 * Drive the selective cache and the prefetcher with the read
 * fragments of `stages`, and the defrag trigger with the reads of
 * `defrag` (a relocating layer fragments reads differently).
 */
StageRun
replayStages(const Capture &stages, const Capture &defrag)
{
    StageRun out;
    // Fragments of every read, flagged when the read is fragmented.
    std::vector<SectorExtent> fragmented;
    std::vector<std::pair<SectorExtent, bool>> all;
    for (std::size_t i = 0; i < stages.records.size(); ++i) {
        if (!stages.records[i].isRead())
            continue;
        const auto segments = stages.segments(i);
        const bool frag = segments.size() >= 2;
        for (const auto &segment : segments) {
            all.emplace_back(segment.physical(), frag);
            if (frag)
                fragmented.push_back(segment.physical());
        }
    }

    // §IV-C selective cache: lookup every fragment of a fragmented
    // read, admit it on a miss.
    out.cacheLookups = fragmented.size();
    out.cacheSec = medianSeconds(kReps, [&] {
        stl::SelectiveCache cache(stl::SelectiveCacheConfig{64 * kMiB});
        const auto start = Clock::now();
        for (const SectorExtent &physical : fragmented)
            if (!cache.lookup(physical))
                cache.admit(physical);
        const double sec = secondsBetween(start, Clock::now());
        out.cacheHits = cache.hits();
        out.cacheMisses = cache.misses();
        return sec;
    });

    // §IV-B look-ahead-behind prefetch: every read fragment is
    // looked up; fragments of fragmented reads fetch and admit the
    // widened region on a miss.
    out.prefetchLookups = all.size();
    out.prefetchSec = medianSeconds(kReps, [&] {
        stl::Prefetcher prefetcher(stl::PrefetchConfig{});
        const auto start = Clock::now();
        for (const auto &[physical, frag] : all) {
            const SectorExtent region =
                frag ? prefetcher.fetchRegion(physical) : physical;
            if (!prefetcher.lookup(physical) && frag)
                prefetcher.admit(region);
        }
        const double sec = secondsBetween(start, Clock::now());
        out.prefetchHits = prefetcher.hits();
        return sec;
    });

    // §IV-A defrag trigger on every read.
    std::vector<std::pair<SectorExtent, std::size_t>> reads;
    for (std::size_t i = 0; i < defrag.records.size(); ++i) {
        if (!defrag.records[i].isRead())
            continue;
        const std::size_t n = defrag.segments(i).size();
        reads.emplace_back(defrag.records[i].extent, n);
        out.defragFragmented += n >= 2 ? 1 : 0;
    }
    out.defragReads = reads.size();
    out.defragSec = medianSeconds(kReps, [&] {
        stl::Defragmenter defragmenter(stl::DefragConfig{});
        std::uint64_t approved = 0;
        const auto start = Clock::now();
        for (const auto &[extent, n] : reads)
            approved += defragmenter.onRead(extent, n) ? 1 : 0;
        const double sec = secondsBetween(start, Clock::now());
        out.defragRewrites = approved;
        return sec;
    });
    return out;
}

void
Ledger::stages(const Profile &profile, const Capture &ls,
               const Capture *defrag, std::uint64_t span)
{
    begin("layer:stl.cache+prefetch+defrag", "layer", span);
    const StageRun run = replayStages(ls, defrag ? *defrag : ls);
    end();
    t_.cache += run.cacheSec;
    t_.cacheLookups += run.cacheLookups;
    t_.cacheHits += run.cacheHits;
    t_.prefetch += run.prefetchSec;
    t_.prefetchLookups += run.prefetchLookups;
    t_.prefetchHits += run.prefetchHits;
    t_.defrag += run.defragSec;
    t_.defragReads += run.defragReads;
    t_.defragFragmented += run.defragFragmented;
    t_.defragRewrites += run.defragRewrites;

    // LS+cache and LS+prefetch translate exactly as LS does, so the
    // stages alone over the LS cell's fragments must reproduce
    // their counts.
    if (const auto *r = ref(profile, Cfg::LsCache)) {
        check(profile.name + "/ls_cache cacheHits", run.cacheHits,
              r->cacheHits);
        check(profile.name + "/ls_cache cacheMisses", run.cacheMisses,
              r->cacheMisses);
    }
    if (const auto *r = ref(profile, Cfg::LsPrefetch))
        check(profile.name + "/ls_prefetch prefetchHits", run.prefetchHits,
              r->prefetchHits);
    if (const auto *r = ref(profile, Cfg::LsDefrag))
        check(profile.name + "/ls_defrag defragRewrites",
              run.defragRewrites, r->defragRewrites);

    // LS+all composes the stages (a cache hit skips the prefetch
    // lookup, defrag changes later fragmentation), so its stages are
    // timed over its own captured fragments and not cross-checked.
    if (!has(Cfg::LsAll))
        return;
    begin("capture:ls_all", "capture", span);
    const Capture all = capture(profile, Cfg::LsAll);
    end();
    begin("layer:stl.cache+prefetch+defrag.ls_all", "layer", span);
    const StageRun composed = replayStages(all, all);
    end();
    t_.allCache += composed.cacheSec;
    t_.allPrefetch += composed.prefetchSec;
    t_.allDefrag += composed.defragSec;
}

void
Ledger::replays(const Profile &profile)
{
    for (const Cfg cfg : prepared_.def->configs) {
        const std::string key = cfgName(cfg);
        stl::Simulator simulator(makeConfig(cfg, profile));
        std::optional<stl::SimResult> result;
        const double sec = medianSeconds(kReps, [&] {
            const auto input = profile.source->open();
            const auto start = Clock::now();
            StatusOr<stl::SimResult> run = simulator.tryRun(*input);
            const double elapsed = secondsBetween(start, Clock::now());
            if (run.ok())
                result = std::move(run).value();
            return elapsed;
        });
        t_.replaySec[key] += sec;
        t_.replayRecords[key] += profile.records;
        const stl::SimResult *r = ref(profile, cfg);
        if (!result || r == nullptr) {
            ++out_.mismatches;
            std::cerr << "perfbench: " << profile.name << "/" << key
                      << " replay failed\n";
        } else {
            check(profile.name + "/" + key + " replay digest",
                  digest(*result), digest(*r));
        }
    }
}

void
Ledger::profileLedger(const Profile &profile, std::uint64_t span)
{
    begin("layer:trace", "layer", span);
    traceLayer(profile);
    end();

    begin("replay:" + profile.name, "replay", span);
    replays(profile);
    end();

    begin("capture:ls", "capture", span);
    const Capture ls = capture(profile, Cfg::Ls);
    end();
    std::optional<Capture> defrag;
    if (has(Cfg::LsDefrag)) {
        begin("capture:ls_defrag", "capture", span);
        defrag = capture(profile, Cfg::LsDefrag);
        end();
    }

    begin("layer:stl.translate+disk.head", "layer", span);
    translateLayers(profile, ls);
    end();

    stages(profile, ls, defrag ? &*defrag : nullptr, span);

    for (const Cfg cfg : {Cfg::FlGreedy, Cfg::FlCb2Zoned}) {
        begin(std::string("layer:stl.gc+disk.zoned.") + cfgName(cfg),
              "layer", span);
        finiteLog(profile, cfg, ls.records);
        end();
    }
}

LedgerResult
Ledger::run()
{
    for (const Profile &profile : prepared_.profiles) {
        const std::uint64_t span =
            begin("ledger:" + profile.name, "ledger", parent_);
        profileLedger(profile, span);
        end();
    }
    emit();
    return std::move(out_);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
nsPer(double sec, std::uint64_t count)
{
    return ratio(sec * 1e9, static_cast<double>(count));
}

void
Ledger::emit()
{
    auto &m = out_.metrics;
    const auto add = [&m](std::string name, std::string unit,
                          double value) {
        m.push_back({std::move(name), std::move(unit), value});
    };
    std::uint64_t gen_records = 0;
    double gen_sec = 0.0;
    for (const Profile &profile : prepared_.profiles) {
        gen_records += profile.records;
        gen_sec += profile.genSec;
    }

    add("trace.next_ns", "ns/record", nsPer(t_.traceNext, t_.records));
    add("trace.lskc_open_s", "s", t_.lskcOpen);
    add("workloads.gen_ns", "ns/record", nsPer(gen_sec, gen_records));
    add("stl.translate.read_ns.ls", "ns/read",
        nsPer(t_.translateRead["ls"], t_.reads));
    add("stl.translate.write_ns.ls", "ns/write",
        nsPer(t_.translateWrite["ls"], t_.writes));
    add("stl.translate.frags_per_read", "count",
        ratio(static_cast<double>(t_.readSegments),
              static_cast<double>(t_.reads)));
    add("stl.translate.map_entries", "count",
        static_cast<double>(t_.mapEntries));
    add("stl.cache.ns", "ns/fragment", nsPer(t_.cache, t_.cacheLookups));
    add("stl.cache.hit_ratio", "hits/lookups",
        ratio(static_cast<double>(t_.cacheHits),
              static_cast<double>(t_.cacheLookups)));
    add("stl.prefetch.ns", "ns/fragment",
        nsPer(t_.prefetch, t_.prefetchLookups));
    add("stl.prefetch.hit_ratio", "hits/lookups",
        ratio(static_cast<double>(t_.prefetchHits),
              static_cast<double>(t_.prefetchLookups)));
    add("stl.defrag.ns", "ns/read", nsPer(t_.defrag, t_.defragReads));
    add("stl.defrag.rewrite_ratio", "ratio",
        ratio(static_cast<double>(t_.defragRewrites),
              static_cast<double>(t_.defragFragmented)));
    for (const Cfg cfg : {Cfg::FlGreedy, Cfg::FlCb2Zoned}) {
        const std::string k = cfgName(cfg);
        const double writes = static_cast<double>(t_.gcWrites[k]);
        add("stl.translate.write_ns." + k, "ns/write",
            nsPer(t_.translateWrite[k], t_.gcWrites[k]));
        add("stl.gc.ns_per_write." + k, "ns/write",
            nsPer(t_.gc[k], t_.gcWrites[k]));
        add("stl.gc.wa." + k, "ratio",
            ratio(static_cast<double>(t_.gcHostWriteBytes[k] +
                                      t_.gcCleaningWriteBytes[k]),
                  static_cast<double>(t_.gcHostWriteBytes[k])));
        add("stl.gc.victim_util." + k, "live/span",
            ratio(static_cast<double>(t_.gcVictimLive[k]),
                  static_cast<double>(t_.gcVictimSpan[k])));
        add("stl.gc.cleaning_seeks_per_write." + k, "count",
            ratio(static_cast<double>(t_.gcCleaningSeeks[k]), writes));
    }
    add("disk.head.ns", "ns/access", nsPer(t_.head["ls"], t_.headAccesses));
    add("disk.head.seeks_per_access", "ratio",
        ratio(static_cast<double>(t_.headSeeks),
              static_cast<double>(t_.headAccesses)));
    add("disk.zoned.ns", "ns/access", nsPer(t_.zoned, t_.zonedAccesses));

    // Ledger reconciliation: for each config the workload runs, the
    // standalone layer times it is made of, per record, against
    // Simulator::run per record; the remainder is the residue.
    std::cout << "\nledger (ns/record; standalone layer time vs "
                 "Simulator::run, same profiles)\n";
    double all_replay = 0.0;
    double all_layers = 0.0;
    std::uint64_t all_records = 0;
    for (const Cfg cfg : prepared_.def->configs) {
        const std::string k = cfgName(cfg);
        const bool fl = cfg == Cfg::FlGreedy || cfg == Cfg::FlCb2Zoned;
        const std::string kind = fl ? k : cfg == Cfg::Nols ? "nols" : "ls";
        std::vector<std::pair<std::string, double>> parts{
            {"trace.next", t_.traceNext},
            {"stl.translate." + kind,
             t_.translateRead[kind] + t_.translateWrite[kind]},
        };
        if (fl)
            parts.emplace_back("stl.gc." + k, t_.gc[k]);
        if (cfg == Cfg::LsCache)
            parts.emplace_back("stl.cache", t_.cache);
        if (cfg == Cfg::LsPrefetch)
            parts.emplace_back("stl.prefetch", t_.prefetch);
        if (cfg == Cfg::LsDefrag)
            parts.emplace_back("stl.defrag", t_.defrag);
        if (cfg == Cfg::LsAll) {
            parts.emplace_back("stl.cache", t_.allCache);
            parts.emplace_back("stl.prefetch", t_.allPrefetch);
            parts.emplace_back("stl.defrag", t_.allDefrag);
        }
        parts.emplace_back("disk.head." + kind, t_.head[kind]);
        if (cfg == Cfg::FlCb2Zoned)
            parts.emplace_back("disk.zoned", t_.zoned);

        const std::uint64_t records = t_.replayRecords[k];
        const double replay = nsPer(t_.replaySec[k], records);
        double layers = 0.0;
        std::cout << "  " << k << ": replay " << replay;
        for (const auto &[name, sec] : parts) {
            layers += nsPer(sec, records);
            std::cout << " | " << name << " " << nsPer(sec, records);
        }
        std::cout << " | sum " << layers << " | residue "
                  << replay - layers << "\n";
        all_replay += t_.replaySec[k];
        all_layers += layers * static_cast<double>(records) / 1e9;
        all_records += records;
        if (cfg == Cfg::Ls) {
            add("stl.replay.ns.ls", "ns/record", replay);
            add("stl.replay.residue_ns.ls", "ns/record", replay - layers);
        }
    }
    add("stl.replay.ns", "ns/record", nsPer(all_replay, all_records));
    add("stl.replay.residue_ns", "ns/record",
        nsPer(all_replay - all_layers, all_records));
    std::cout << "  clock read cost subtracted per timed call: "
              << clockCostSec() * 1e9 << " ns\n";
}

} // namespace

LedgerResult
runLedger(const Prepared &prepared,
          const std::map<std::string, stl::SimResult> &reference,
          const std::string &dir, SpanLog &spans, std::uint64_t parent)
{
    Ledger ledger(prepared, reference, dir, spans, parent);
    return ledger.run();
}

} // namespace perfbench
