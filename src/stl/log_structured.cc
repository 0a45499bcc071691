#include "log_structured.h"

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace logseek::stl
{

LogFrontier::LogFrontier(Pba start,
                         const std::optional<ZoneConfig> &zones)
    : start_(start), pos_(start)
{
    if (zones) {
        zoneSectors_ = bytesToSectors(zones->zoneBytes);
        guardSectors_ = bytesToSectors(zones->guardBytes);
        panicIf(zoneSectors_ == 0,
                "LogFrontier: zone size must be at least one "
                "sector");
    }
}

SectorCount
LogFrontier::zoneRemaining() const
{
    if (zoneSectors_ == 0)
        return ~SectorCount{0};
    const SectorCount pitch = zoneSectors_ + guardSectors_;
    const SectorCount offset = (pos_ - start_) % pitch;
    panicIf(offset >= zoneSectors_,
            "LogFrontier: frontier inside a guard band");
    return zoneSectors_ - offset;
}

void
LogFrontier::restore(Pba pos, std::uint64_t crossings)
{
    panicIf(pos < start_, "LogFrontier: restore below the log");
    if (zoneSectors_ != 0) {
        const SectorCount pitch = zoneSectors_ + guardSectors_;
        panicIf((pos - start_) % pitch >= zoneSectors_,
                "LogFrontier: restore inside a guard band");
    }
    pos_ = pos;
    crossings_ = crossings;
}

void
LogFrontier::advance(SectorCount take)
{
    pos_ += take;
    // Skip the guard band when the zone filled up.
    if (zoneSectors_ != 0) {
        const SectorCount pitch = zoneSectors_ + guardSectors_;
        if ((pos_ - start_) % pitch == zoneSectors_) {
            pos_ += guardSectors_;
            ++crossings_;
        }
    }
}

LogStructuredLayer::LogStructuredLayer(Pba initial_frontier,
                                       std::optional<ZoneConfig> zones)
    : logStart_(initial_frontier),
      frontier_(initial_frontier, zones)
{
}

void
LogStructuredLayer::translateReadInto(const SectorExtent &extent,
                                      SegmentBuffer &out) const
{
    panicIf(extent.empty(), "LogStructuredLayer: empty read");
    map_.translateInto(extent, out);
}

void
LogStructuredLayer::placeWriteInto(const SectorExtent &extent,
                                   SegmentBuffer &out)
{
    panicIf(extent.empty(), "LogStructuredLayer: empty write");
    panicIf(extent.end() > logStart_,
            "LogStructuredLayer: workload LBA above the log start; "
            "construct with a larger initial frontier");

    out.clear();
    Lba lba = extent.start;
    SectorCount remaining = extent.count;
    if (journal_ != nullptr)
        journalScratch_.clear();
    while (remaining > 0) {
        const SectorCount take =
            std::min(remaining, frontier_.zoneRemaining());
        const Pba placed = frontier_.pos();
        map_.mapRange(lba, placed, take);
        out.push(Segment{SectorExtent{lba, take}, placed, true});
        if (journal_ != nullptr)
            journalScratch_.push_back({lba, placed, take});
        frontier_.advance(take);
        lba += take;
        remaining -= take;
    }
    // One epoch per logical write: the placement is durable as a
    // unit or not at all (torn frames drop the whole op).
    if (journal_ != nullptr)
        journal_->record(JournalRecordKind::Placement,
                         frontier_.pos(), frontier_.crossings(),
                         journalScratch_);
}

MountStats
LogStructuredLayer::mountFromJournal(const SegmentJournal &journal)
{
    const telemetry::ScopedTimer timer(
        &telemetry::Registry::global().histogram(
            "mount_latency_ns"));
    panicIf(!map_.empty(),
            "LogStructuredLayer: mount on a non-fresh layer");
    const JournalScan scan = scanJournal(journal.image());
    for (const JournalRecord &record : scan.records) {
        panicIf(record.kind != JournalRecordKind::Placement,
                "LogStructuredLayer: foreign record kind in "
                "journal");
        for (const JournalEntry &entry : record.entries)
            map_.mapRange(entry.lba, entry.pba, entry.count);
    }
    if (!scan.records.empty()) {
        const JournalRecord &last = scan.records.back();
        frontier_.restore(last.frontierAfter, last.aux);
    }
    return mountStatsFrom(scan);
}

std::size_t
LogStructuredLayer::staticFragmentCount() const
{
    return map_.entryCount();
}

} // namespace logseek::stl
