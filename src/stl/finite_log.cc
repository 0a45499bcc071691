#include "finite_log.h"

#include <algorithm>
#include <bit>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace logseek::stl
{

namespace
{

/** Pack a stream id into the high half of the journal aux word.
 *  Stream 0 leaves the word untouched, so single-stream journals
 *  stay byte-identical to the historical format. */
std::uint64_t
packAux(std::uint32_t low, std::uint32_t stream)
{
    return static_cast<std::uint64_t>(low) |
           (static_cast<std::uint64_t>(stream) << 32);
}

} // namespace

FiniteLogStructuredLayer::FiniteLogStructuredLayer(
    Pba identity_end, const FiniteLogConfig &config)
    : config_(config), logStart_(identity_end),
      segmentSectors_(bytesToSectors(config.segmentBytes))
{
    panicIf(segmentSectors_ == 0,
            "FiniteLogStructuredLayer: segment size must be at "
            "least one sector");
    const SectorCount capacity =
        bytesToSectors(config.capacityBytes);
    const std::uint64_t count = capacity / segmentSectors_;
    panicIf(count < 2,
            "FiniteLogStructuredLayer: need at least two segments");
    panicIf(config.cleanTargetSegments <=
                config.cleanReserveSegments,
            "FiniteLogStructuredLayer: clean target must exceed "
            "the reserve");
    panicIf(config.cleanTargetSegments >= count,
            "FiniteLogStructuredLayer: clean target must be below "
            "the segment count");
    panicIf(config.gc.streams == 0,
            "FiniteLogStructuredLayer: need at least one placement "
            "stream");
    panicIf(config.gc.streams + config.cleanTargetSegments > count,
            "FiniteLogStructuredLayer: streams plus clean target "
            "must not exceed the segment count");
    segments_.resize(count);
    freeCount_ = static_cast<std::uint32_t>(count);
    freeBits_.assign((count + 63) / 64, ~0ULL);
    if (count % 64 != 0)
        freeBits_.back() = (1ULL << (count % 64)) - 1;
    summaries_.resize(count);
    liveBits_.resize((count * segmentSectors_ + 63) / 64);
    streams_.resize(config.gc.streams);
    setFree(0, false); // stream 0's initial open segment
    setOpenSegment(0, 0, logStart_);
    if (config.gc.streams > 1)
        router_.emplace(config.gc.streams, config.gc.router);

    auto &registry = telemetry::Registry::global();
    const std::string policy_label =
        std::string("policy=\"") + gc::toString(config.gc.policy) +
        "\"";
    gcReclaims_ =
        &registry.counter("gc_reclaims_total", policy_label);
    gcMovedBytes_ =
        &registry.counter("gc_moved_bytes_total", policy_label);
    gcVictimUtilization_ = &registry.histogram(
        "gc_victim_utilization_pct", policy_label);
}

std::uint32_t
FiniteLogStructuredLayer::segmentOf(Pba pba) const
{
    panicIf(pba < logStart_,
            "FiniteLogStructuredLayer: sector below the log");
    const auto index =
        static_cast<std::uint32_t>((pba - logStart_) /
                                   segmentSectors_);
    panicIf(index >= segments_.size(),
            "FiniteLogStructuredLayer: sector beyond the log");
    return index;
}

void
FiniteLogStructuredLayer::markLive(const SectorExtent &range,
                                   bool live)
{
    // A range may straddle segment boundaries; split per segment.
    Pba cursor = range.start;
    while (cursor < range.end()) {
        const std::uint32_t seg = segmentOf(cursor);
        const Pba seg_end =
            logStart_ + (seg + 1ULL) * segmentSectors_;
        const SectorCount piece =
            std::min<SectorCount>(range.end(), seg_end) - cursor;
        gc::SegmentInfo &state = segments_[seg];
        if (live) {
            state.live += piece;
        } else {
            panicIf(state.live < piece,
                    "FiniteLogStructuredLayer: liveness underflow");
            state.live -= piece;
        }
        cursor += piece;
    }

    // Same range in the bitmap, one 64-sector word at a time.
    std::uint64_t bit = range.start - logStart_;
    const std::uint64_t end = bit + range.count;
    while (bit < end) {
        const std::uint64_t shift = bit % 64;
        const std::uint64_t width =
            std::min<std::uint64_t>(64 - shift, end - bit);
        const std::uint64_t mask =
            (width == 64 ? ~0ULL : (1ULL << width) - 1) << shift;
        if (live)
            liveBits_[bit / 64] |= mask;
        else
            liveBits_[bit / 64] &= ~mask;
        bit += width;
    }
}

Pba
FiniteLogStructuredLayer::findSector(Pba from, Pba end,
                                     bool live) const
{
    std::uint64_t bit = from - logStart_;
    const std::uint64_t last = end - logStart_;
    while (bit < last) {
        const std::uint64_t word =
            live ? liveBits_[bit / 64] : ~liveBits_[bit / 64];
        const std::uint64_t rest = word >> (bit % 64);
        if (rest != 0)
            return logStart_ +
                   std::min<std::uint64_t>(
                       last, bit + static_cast<std::uint64_t>(
                                       std::countr_zero(rest)));
        bit = (bit / 64 + 1) * 64;
    }
    return end;
}

void
FiniteLogStructuredLayer::setFree(std::uint32_t seg, bool free)
{
    gc::SegmentInfo &state = segments_[seg];
    if (state.free == free)
        return;
    state.free = free;
    const std::uint64_t bit = 1ULL << (seg % 64);
    if (free) {
        ++freeCount_;
        freeBits_[seg / 64] |= bit;
    } else {
        --freeCount_;
        freeBits_[seg / 64] &= ~bit;
    }
}

void
FiniteLogStructuredLayer::setOpenSegment(std::uint32_t sid,
                                         std::uint32_t seg,
                                         Pba write_ptr)
{
    StreamState &stream = streams_[sid];
    if (stream.opened)
        segments_[stream.openSegment].open = false;
    segments_[seg].open = true;
    stream = {seg, write_ptr, true};
}

void
FiniteLogStructuredLayer::openFreeSegment(std::uint32_t sid)
{
    for (std::size_t word = 0; word < freeBits_.size(); ++word) {
        if (freeBits_[word] != 0) {
            const auto i = static_cast<std::uint32_t>(
                word * 64 +
                static_cast<std::size_t>(
                    std::countr_zero(freeBits_[word])));
            setFree(i, false);
            setOpenSegment(
                sid, i,
                logStart_ + static_cast<Pba>(i) * segmentSectors_);
            return;
        }
    }
    fatal("finite log out of space: no free segment to open "
          "(cleaning could not keep up; increase capacityBytes)");
}

void
FiniteLogStructuredLayer::append(Lba lba, SectorCount count,
                                 SegmentBuffer &out,
                                 std::uint32_t sid)
{
    ++tick_;
    if (journal_ != nullptr)
        journalScratch_.clear();
    StreamState &stream = streams_[sid];
    if (!stream.opened)
        openFreeSegment(sid);
    while (count > 0) {
        const Pba open_end =
            logStart_ + (static_cast<Pba>(stream.openSegment) + 1) *
                            segmentSectors_;
        if (stream.writePtr == open_end)
            openFreeSegment(sid);
        const Pba open_limit =
            logStart_ + (static_cast<Pba>(stream.openSegment) + 1) *
                            segmentSectors_;
        const SectorCount take = std::min<SectorCount>(
            count, open_limit - stream.writePtr);

        displacedScratch_.clear();
        map_.mapRange(lba, stream.writePtr, take,
                      &displacedScratch_);
        // Identity holes are never in the forward map, so every
        // displaced range is log-resident.
        for (const auto &dead : displacedScratch_)
            markLive(dead, false);
        summaries_[stream.openSegment].push_back(
            {stream.writePtr, lba, take});
        markLive({stream.writePtr, take}, true);
        segments_[stream.openSegment].lastWrite = tick_;

        out.push(Segment{SectorExtent{lba, take}, stream.writePtr,
                         true});
        if (journal_ != nullptr)
            journalScratch_.push_back({lba, stream.writePtr, take});
        stream.writePtr += take;
        lba += take;
        count -= take;
    }
    // One epoch per append (host write or cleaning re-append); the
    // post-op write pointer and open segment ride along so mount
    // never re-derives free-segment arithmetic. The owning stream
    // travels in the aux high half.
    if (journal_ != nullptr)
        journal_->record(JournalRecordKind::Placement,
                         stream.writePtr,
                         packAux(stream.openSegment, sid),
                         journalScratch_);
}

void
FiniteLogStructuredLayer::translateReadInto(
    const SectorExtent &extent, SegmentBuffer &out) const
{
    panicIf(extent.empty(), "FiniteLogStructuredLayer: empty read");
    map_.translateInto(extent, out);
}

void
FiniteLogStructuredLayer::placeWriteInto(const SectorExtent &extent,
                                         SegmentBuffer &out)
{
    panicIf(extent.empty(), "FiniteLogStructuredLayer: empty write");
    panicIf(extent.end() > logStart_,
            "FiniteLogStructuredLayer: workload LBA above the log "
            "start");
    out.clear();
    const std::uint32_t sid =
        router_ ? router_->route(extent.start, extent.count) : 0;
    append(extent.start, extent.count, out, sid);
}

void
FiniteLogStructuredLayer::relocateInto(const SectorExtent &extent,
                                       SegmentBuffer &out)
{
    panicIf(extent.empty(),
            "FiniteLogStructuredLayer: empty relocate");
    panicIf(extent.end() > logStart_,
            "FiniteLogStructuredLayer: workload LBA above the log "
            "start");
    out.clear();
    append(extent.start, extent.count, out, coldStream());
}

std::size_t
FiniteLogStructuredLayer::staticFragmentCount() const
{
    return map_.entryCount();
}

SectorCount
FiniteLogStructuredLayer::segmentLive(std::uint32_t i) const
{
    panicIf(i >= segments_.size(),
            "FiniteLogStructuredLayer: segment index out of range");
    return segments_[i].live;
}

std::vector<MediaAccess>
FiniteLogStructuredLayer::maintenance()
{
    std::vector<MediaAccess> accesses;
    // Hysteresis: cleaning starts when the reserve is reached and
    // runs until the target is restored.
    if (freeCount_ > config_.cleanReserveSegments)
        return accesses;
    while (freeCount_ < config_.cleanTargetSegments) {
        const std::optional<std::uint32_t> selected =
            gc::selectVictim(config_.gc.policy,
                             {segments_, segmentSectors_, tick_});
        if (!selected) {
            // All closed segments are fully live: compaction has
            // nothing to reclaim right now. That is fine as long
            // as we are above the reserve; below it the log is
            // genuinely overcommitted.
            if (freeCount_ > config_.cleanReserveSegments)
                break;
            fatal("finite log overcommitted: cleaning cannot "
                  "reclaim space (live data exceeds capacity "
                  "headroom)");
        }
        const std::uint32_t victim = *selected;
        const SectorCount victim_live = segments_[victim].live;
        gcVictimLiveBytes_ += sectorsToBytes(victim_live);
        gcVictimSpanBytes_ += sectorsToBytes(segmentSectors_);
        gcReclaims_->add();
        gcMovedBytes_->add(sectorsToBytes(victim_live));
        gcVictimUtilization_->record(victim_live * 100 /
                                     segmentSectors_);

        // Move the victim's live extents to the frontier. Moving
        // one kills exactly its own sectors and appends to the cold
        // stream's open segment, never the victim, so the runs
        // gathered up front stay live until their turn.
        const SectorExtent victim_extent{
            logStart_ + static_cast<Pba>(victim) * segmentSectors_,
            segmentSectors_};
        victimScratch_.clear();
        forEachLiveRun(victim, [&](Lba lba, Pba pba,
                                   SectorCount count) {
            victimScratch_.push_back({pba, lba, count});
        });

        // The zone-granular policy streams the whole victim zone
        // in one sequential read (a single seek) instead of seeking
        // to each live extent individually.
        const bool whole_zone =
            config_.gc.policy == gc::CleaningPolicyKind::ZoneGranular;
        if (whole_zone && victim_live > 0) {
            accesses.push_back(
                {victim_extent, trace::IoType::Read});
        }

        for (const SummaryEntry &run : victimScratch_) {
            if (!whole_zone) {
                accesses.push_back({SectorExtent{run.pba, run.count},
                                    trace::IoType::Read});
            }
            cleanScratch_.clear();
            append(run.lba, run.count, cleanScratch_, coldStream());
            for (const Segment &segment : cleanScratch_) {
                accesses.push_back({segment.physical(),
                                    trace::IoType::Write});
            }
        }
        panicIf(segments_[victim].live != 0,
                "FiniteLogStructuredLayer: victim still live after "
                "cleaning");
        summaries_[victim].clear();
        setFree(victim, true);
        ++cleanings_;
        if (journal_ != nullptr) {
            // Cleaning re-appends went to the cold stream; record
            // its frontier (logStart_ sentinel while unopened, i.e.
            // the victim was fully dead and nothing moved).
            const StreamState &cold = streams_[coldStream()];
            journal_->record(JournalRecordKind::SegmentReset,
                             cold.opened ? cold.writePtr
                                         : logStart_,
                             packAux(victim, coldStream()), {});
        }
    }
    return accesses;
}

MountStats
FiniteLogStructuredLayer::mountFromJournal(
    const SegmentJournal &journal)
{
    const telemetry::ScopedTimer timer(
        &telemetry::Registry::global().histogram(
            "mount_latency_ns"));
    panicIf(!map_.empty() || tick_ != 0,
            "FiniteLogStructuredLayer: mount on a non-fresh layer");
    const JournalScan scan = scanJournal(journal.image());
    for (const JournalRecord &record : scan.records) {
        switch (record.kind) {
        case JournalRecordKind::Placement: {
            ++tick_;
            for (const JournalEntry &entry : record.entries) {
                displacedScratch_.clear();
                map_.mapRange(entry.lba, entry.pba, entry.count,
                              &displacedScratch_);
                for (const auto &dead : displacedScratch_)
                    markLive(dead, false);
                // Append never splits an entry across segments.
                const std::uint32_t seg = segmentOf(entry.pba);
                summaries_[seg].push_back(
                    {entry.pba, entry.lba, entry.count});
                markLive({entry.pba, entry.count}, true);
                setFree(seg, false);
                segments_[seg].lastWrite = tick_;
            }
            const auto open =
                static_cast<std::uint32_t>(record.aux);
            const auto sid =
                static_cast<std::uint32_t>(record.aux >> 32);
            panicIf(sid >= streams_.size(),
                    "FiniteLogStructuredLayer: journal references "
                    "a stream beyond the configuration");
            panicIf(open >= segments_.size(),
                    "FiniteLogStructuredLayer: journal opens a "
                    "segment beyond the log");
            setFree(open, false);
            setOpenSegment(sid, open, record.frontierAfter);
            break;
        }
        case JournalRecordKind::SegmentReset: {
            const auto victim =
                static_cast<std::uint32_t>(record.aux);
            const auto sid =
                static_cast<std::uint32_t>(record.aux >> 32);
            panicIf(victim >= segments_.size(),
                    "FiniteLogStructuredLayer: journal reclaims a "
                    "segment beyond the log");
            panicIf(sid >= streams_.size(),
                    "FiniteLogStructuredLayer: journal reset "
                    "references a stream beyond the configuration");
            panicIf(segments_[victim].live != 0,
                    "FiniteLogStructuredLayer: journal reclaims a "
                    "live segment");
            summaries_[victim].clear();
            setFree(victim, true);
            // The reset's frontier belongs to the cleaning stream;
            // a logStart_ record while the stream is still closed
            // means the victim was fully dead and nothing moved.
            if (streams_[sid].opened)
                streams_[sid].writePtr = record.frontierAfter;
            ++cleanings_;
            break;
        }
        case JournalRecordKind::MergeReset:
            fatal("FiniteLogStructuredLayer: foreign record kind "
                  "in journal");
        }
    }
    return mountStatsFrom(scan);
}

} // namespace logseek::stl
