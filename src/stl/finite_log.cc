#include "finite_log.h"

#include <algorithm>

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
      segmentSectors_(bytesToSectors(config.segmentBytes)),
      policy_(gc::makeCleaningPolicy(config.gc.policy))
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
    segments_[0].free = false; // stream 0's initial open segment
    streams_.resize(config.gc.streams);
    streams_[0] = {0, logStart_, true};
    if (config.gc.streams > 1)
        router_.emplace(config.gc.streams, config.gc.router);

    auto &registry = telemetry::Registry::global();
    const std::string policy_label =
        std::string("policy=\"") + policy_->name() + "\"";
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
FiniteLogStructuredLayer::adjustLive(const SectorExtent &range,
                                     bool add)
{
    // A range may straddle segment boundaries; split per segment.
    Pba cursor = range.start;
    while (cursor < range.end()) {
        const std::uint32_t seg = segmentOf(cursor);
        const Pba seg_end =
            logStart_ + (seg + 1ULL) * segmentSectors_;
        const SectorCount piece =
            std::min<SectorCount>(range.end(), seg_end) - cursor;
        SegmentState &state = segments_[seg];
        if (add) {
            state.live += piece;
        } else {
            panicIf(state.live < piece,
                    "FiniteLogStructuredLayer: liveness underflow");
            state.live -= piece;
        }
        cursor += piece;
    }
}

void
FiniteLogStructuredLayer::removeReverse(const SectorExtent &range)
{
    auto it = reverse_.upper_bound(range.start);
    if (it != reverse_.begin())
        --it;
    while (it != reverse_.end() && it->first < range.end()) {
        const SectorExtent entry{it->first, it->second.second};
        const Lba entry_lba = it->second.first;
        auto next = std::next(it);
        const auto overlap = intersect(entry, range);
        if (overlap) {
            reverse_.erase(it);
            if (entry.start < overlap->start) {
                reverse_.emplace(
                    entry.start,
                    std::make_pair(entry_lba,
                                   overlap->start - entry.start));
            }
            if (overlap->end() < entry.end()) {
                reverse_.emplace(
                    overlap->end(),
                    std::make_pair(entry_lba +
                                       (overlap->end() - entry.start),
                                   entry.end() - overlap->end()));
            }
        }
        it = next;
    }
}

void
FiniteLogStructuredLayer::openFreeSegment(std::uint32_t sid)
{
    for (std::uint32_t i = 0; i < segments_.size(); ++i) {
        if (segments_[i].free) {
            segments_[i].free = false;
            streams_[sid] = {
                i, logStart_ + static_cast<Pba>(i) * segmentSectors_,
                true};
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
        for (const auto &dead : displacedScratch_) {
            // Identity holes are never in the forward map, so every
            // displaced range is log-resident.
            adjustLive(dead, false);
            removeReverse(dead);
        }
        reverse_.emplace(stream.writePtr,
                         std::make_pair(lba, take));
        adjustLive({stream.writePtr, take}, true);
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

std::uint32_t
FiniteLogStructuredLayer::freeSegments() const
{
    std::uint32_t count = 0;
    for (const auto &segment : segments_) {
        if (segment.free)
            ++count;
    }
    return count;
}

SectorCount
FiniteLogStructuredLayer::segmentLive(std::uint32_t i) const
{
    panicIf(i >= segments_.size(),
            "FiniteLogStructuredLayer: segment index out of range");
    return segments_[i].live;
}

bool
FiniteLogStructuredLayer::segmentOpen(std::uint32_t i) const
{
    for (const StreamState &stream : streams_) {
        if (stream.opened && stream.openSegment == i)
            return true;
    }
    return false;
}

std::vector<MediaAccess>
FiniteLogStructuredLayer::maintenance()
{
    std::vector<MediaAccess> accesses;
    // Hysteresis: cleaning starts when the reserve is reached and
    // runs until the target is restored (policy-overridable).
    if (!policy_->startCleaning(freeSegments(),
                                config_.cleanReserveSegments))
        return accesses;
    while (policy_->continueCleaning(freeSegments(),
                                     config_.cleanTargetSegments)) {
        const std::optional<std::uint32_t> selected =
            policy_->selectVictim(*this);
        if (!selected) {
            // All closed segments are fully live: compaction has
            // nothing to reclaim right now. That is fine as long
            // as we are above the reserve; below it the log is
            // genuinely overcommitted.
            if (freeSegments() > config_.cleanReserveSegments)
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

        // Move the victim's live extents to the frontier.
        const Pba victim_start =
            logStart_ + static_cast<Pba>(victim) * segmentSectors_;
        const SectorExtent victim_extent{victim_start,
                                         segmentSectors_};
        std::vector<std::pair<Pba, std::pair<Lba, SectorCount>>>
            live;
        for (auto it = reverse_.lower_bound(victim_start);
             it != reverse_.end() &&
             it->first < victim_extent.end();
             ++it) {
            live.emplace_back(*it);
        }

        // Zone-granular policies stream the whole victim zone in
        // one sequential read (a single seek) instead of seeking
        // to each live extent individually.
        const bool whole_zone = policy_->wholeZoneRead();
        if (whole_zone && victim_live > 0) {
            accesses.push_back(
                {victim_extent, trace::IoType::Read});
        }

        for (const auto &[pba, entry] : live) {
            const auto &[lba, count] = entry;
            // The entry may have been displaced by an earlier
            // rewrite in this same pass; re-check residency.
            if (!reverse_.contains(pba))
                continue;
            if (!whole_zone) {
                accesses.push_back({SectorExtent{pba, count},
                                    trace::IoType::Read});
            }
            cleanScratch_.clear();
            append(lba, count, cleanScratch_, coldStream());
            for (const Segment &segment : cleanScratch_) {
                accesses.push_back({segment.physical(),
                                    trace::IoType::Write});
            }
        }
        panicIf(segments_[victim].live != 0,
                "FiniteLogStructuredLayer: victim still live after "
                "cleaning");
        segments_[victim].free = true;
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
    panicIf(!map_.empty() || !reverse_.empty(),
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
                for (const auto &dead : displacedScratch_) {
                    adjustLive(dead, false);
                    removeReverse(dead);
                }
                reverse_.emplace(
                    entry.pba,
                    std::make_pair(entry.lba, entry.count));
                adjustLive({entry.pba, entry.count}, true);
                // Append never splits an entry across segments.
                const std::uint32_t seg = segmentOf(entry.pba);
                segments_[seg].free = false;
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
            segments_[open].free = false;
            streams_[sid] = {open, record.frontierAfter, true};
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
            segments_[victim].free = true;
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
