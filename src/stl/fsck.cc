#include "fsck.h"

#include <algorithm>
#include <utility>

#include "stl/extent_map.h"
#include "stl/finite_log.h"
#include "stl/log_structured.h"
#include "stl/media_cache.h"
#include "telemetry/metrics.h"

namespace logseek::stl
{

namespace
{

std::string
formatEntry(const JournalEntry &entry)
{
    return "(lba " + std::to_string(entry.lba) + " -> pba " +
           std::to_string(entry.pba) + ", " +
           std::to_string(entry.count) + " sectors)";
}

void
report(FsckReport &out, std::string check, std::string detail)
{
    out.violations.push_back(
        FsckViolation{std::move(check), std::move(detail)});
}

std::vector<JournalEntry>
collectEntries(const ExtentMap &map)
{
    std::vector<JournalEntry> entries;
    entries.reserve(map.entryCount());
    map.forEachEntry([&](Lba lba, Pba pba, SectorCount count) {
        entries.push_back({lba, pba, count});
    });
    return entries;
}

/** Merge logically and physically adjacent runs so two maps with
 *  different internal split points compare by meaning, not shape. */
void
coalesce(std::vector<JournalEntry> &entries)
{
    if (entries.size() < 2)
        return;
    std::size_t out = 0;
    for (std::size_t i = 1; i < entries.size(); ++i) {
        JournalEntry &last = entries[out];
        const JournalEntry &next = entries[i];
        if (last.lba + last.count == next.lba &&
            last.pba + last.count == next.pba)
            last.count += next.count;
        else
            entries[++out] = next;
    }
    entries.resize(out + 1);
}

void
compareEntries(FsckReport &out, const char *check,
               std::vector<JournalEntry> expected,
               std::vector<JournalEntry> actual)
{
    coalesce(expected);
    coalesce(actual);
    out.checkedEntries += expected.size();
    if (expected.size() != actual.size()) {
        report(out, check,
               "entry count mismatch: journal replay has " +
                   std::to_string(expected.size()) +
                   " runs, layer has " +
                   std::to_string(actual.size()));
        return;
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (expected[i] == actual[i])
            continue;
        report(out, check,
               "run " + std::to_string(i) +
                   " diverges: journal replay " +
                   formatEntry(expected[i]) + ", layer " +
                   formatEntry(actual[i]));
        return;
    }
}

void
checkFrontier(FsckReport &out, const JournalScan &scan,
              Pba log_start, Pba frontier, std::uint64_t crossings)
{
    Pba want_frontier = log_start;
    std::uint64_t want_crossings = 0;
    if (!scan.records.empty()) {
        want_frontier = scan.records.back().frontierAfter;
        want_crossings = scan.records.back().aux;
    }
    if (frontier != want_frontier)
        report(out, "frontier-alignment",
               "write frontier at " + std::to_string(frontier) +
                   ", last journal epoch recorded " +
                   std::to_string(want_frontier));
    if (crossings != want_crossings)
        report(out, "zone-crossings",
               "layer crossed " + std::to_string(crossings) +
                   " zone boundaries, journal recorded " +
                   std::to_string(want_crossings));
}

void
checkPlacementBounds(FsckReport &out,
                     const std::vector<JournalEntry> &entries,
                     Pba log_start, Pba frontier)
{
    for (const JournalEntry &entry : entries) {
        if (entry.pba >= log_start &&
            entry.pba + entry.count <= frontier)
            continue;
        report(out, "on-log-bounds",
               "mapped run " + formatEntry(entry) +
                   " outside the written log [" +
                   std::to_string(log_start) + ", " +
                   std::to_string(frontier) + ")");
        return;
    }
}

void
checkLogStructured(const LogStructuredLayer &layer,
                   const JournalScan &scan, FsckReport &out)
{
    ExtentMap expected;
    for (const JournalRecord &record : scan.records) {
        if (record.kind != JournalRecordKind::Placement) {
            report(out, "record-kind",
                   "log-structured journal holds a non-placement "
                   "epoch " +
                       std::to_string(record.epoch));
            continue;
        }
        for (const JournalEntry &entry : record.entries)
            expected.mapRange(entry.lba, entry.pba, entry.count);
    }
    compareEntries(out, "map-log-agreement",
                   collectEntries(expected),
                   collectEntries(layer.extentMap()));
    checkFrontier(out, scan, layer.logStart(),
                  layer.writeFrontier(), layer.zoneCrossings());
    checkPlacementBounds(out, collectEntries(layer.extentMap()),
                         layer.logStart(), layer.writeFrontier());
}

void
checkFiniteLog(const FiniteLogStructuredLayer &layer,
               const JournalScan &scan, FsckReport &out)
{
    ExtentMap expected;
    std::uint64_t expected_cleanings = 0;
    // Per-stream expected frontier state replayed from the journal.
    // Stream 0 opens segment 0 at construction; the rest open
    // lazily on their first append. The owning stream of each
    // record rides in the aux word's high half.
    struct StreamWant
    {
        Pba ptr = 0;
        std::uint32_t open = 0;
        bool opened = false;
    };
    std::vector<StreamWant> want(layer.streamCount());
    want[0] = {layer.logStart(), 0, true};
    for (const JournalRecord &record : scan.records) {
        const auto sid =
            static_cast<std::uint32_t>(record.aux >> 32);
        switch (record.kind) {
        case JournalRecordKind::Placement:
            for (const JournalEntry &entry : record.entries)
                expected.mapRange(entry.lba, entry.pba,
                                  entry.count);
            if (sid >= want.size()) {
                report(out, "stream-bounds",
                       "journal epoch " +
                           std::to_string(record.epoch) +
                           " places into stream " +
                           std::to_string(sid) + " of " +
                           std::to_string(want.size()));
                break;
            }
            want[sid] = {record.frontierAfter,
                         static_cast<std::uint32_t>(record.aux),
                         true};
            break;
        case JournalRecordKind::SegmentReset:
            ++expected_cleanings;
            if (sid >= want.size()) {
                report(out, "stream-bounds",
                       "journal epoch " +
                           std::to_string(record.epoch) +
                           " resets via stream " +
                           std::to_string(sid) + " of " +
                           std::to_string(want.size()));
                break;
            }
            // The reset's frontier belongs to the cleaning stream;
            // a fully-dead victim moves nothing and records the
            // logStart sentinel while the stream is still closed.
            if (want[sid].opened)
                want[sid].ptr = record.frontierAfter;
            break;
        case JournalRecordKind::MergeReset:
            report(out, "record-kind",
                   "finite-log journal holds a merge epoch " +
                       std::to_string(record.epoch));
            break;
        }
    }
    compareEntries(out, "map-log-agreement",
                   collectEntries(expected),
                   collectEntries(layer.extentMap()));
    if (layer.cleanings() != expected_cleanings)
        report(out, "cleaning-count",
               "layer reclaimed " +
                   std::to_string(layer.cleanings()) +
                   " segments, journal recorded " +
                   std::to_string(expected_cleanings));
    for (std::uint32_t sid = 0; sid < layer.streamCount();
         ++sid) {
        if (layer.streamOpened(sid) != want[sid].opened) {
            report(out, "stream-open",
                   "stream " + std::to_string(sid) +
                       (layer.streamOpened(sid)
                            ? " is open, journal never opened it"
                            : " is closed, journal opened it"));
            continue;
        }
        if (!layer.streamOpened(sid))
            continue;
        if (layer.streamWritePointer(sid) != want[sid].ptr)
            report(out, "frontier-alignment",
                   "stream " + std::to_string(sid) +
                       " write pointer at " +
                       std::to_string(
                           layer.streamWritePointer(sid)) +
                       ", last journal epoch recorded " +
                       std::to_string(want[sid].ptr));
        if (layer.streamOpenSegment(sid) != want[sid].open)
            report(out, "open-segment",
                   "stream " + std::to_string(sid) +
                       " open segment " +
                       std::to_string(
                           layer.streamOpenSegment(sid)) +
                       ", journal recorded " +
                       std::to_string(want[sid].open));

        // Each open segment must be off the free list and must
        // contain its stream's write pointer (or sit exactly one
        // past its end, the lazy open-on-next-append state).
        if (layer.segmentFree(layer.streamOpenSegment(sid)))
            report(out, "open-segment",
                   "stream " + std::to_string(sid) +
                       " open segment " +
                       std::to_string(
                           layer.streamOpenSegment(sid)) +
                       " is on the free list");
        const Pba open_start =
            layer.logStart() +
            static_cast<Pba>(layer.streamOpenSegment(sid)) *
                layer.segmentSectors();
        if (layer.streamWritePointer(sid) < open_start ||
            layer.streamWritePointer(sid) >
                open_start + layer.segmentSectors())
            report(out, "frontier-alignment",
                   "stream " + std::to_string(sid) +
                       " write pointer " +
                       std::to_string(
                           layer.streamWritePointer(sid)) +
                       " outside open segment " +
                       std::to_string(
                           layer.streamOpenSegment(sid)));
    }

    // Opened streams must own distinct open segments — two
    // frontiers in one segment would interleave their appends.
    for (std::uint32_t a = 0; a < layer.streamCount(); ++a) {
        if (!layer.streamOpened(a))
            continue;
        for (std::uint32_t b = a + 1; b < layer.streamCount();
             ++b) {
            if (layer.streamOpened(b) &&
                layer.streamOpenSegment(a) ==
                    layer.streamOpenSegment(b))
                report(out, "stream-open-distinct",
                       "streams " + std::to_string(a) + " and " +
                           std::to_string(b) +
                           " share open segment " +
                           std::to_string(
                               layer.streamOpenSegment(a)));
        }
    }

    // GC liveness: the per-segment live counters must sum to
    // exactly the mapped sectors — cleaning may move data but
    // never lose or duplicate liveness.
    SectorCount live_total = 0;
    for (std::uint32_t i = 0; i < layer.segmentCount(); ++i)
        live_total += layer.segmentLive(i);
    if (live_total != layer.extentMap().mappedSectors())
        report(out, "gc-liveness",
               "segments count " + std::to_string(live_total) +
                   " live sectors, forward map holds " +
                   std::to_string(
                       layer.extentMap().mappedSectors()));

    // Incremental segment state: the free count must match the
    // free flags, and the open flags must mark exactly the opened
    // streams' open segments.
    std::uint32_t free_total = 0;
    std::vector<bool> open(layer.segmentCount(), false);
    for (std::uint32_t sid = 0; sid < layer.streamCount(); ++sid) {
        if (layer.streamOpened(sid))
            open[layer.streamOpenSegment(sid)] = true;
    }
    for (std::uint32_t i = 0; i < layer.segmentCount(); ++i) {
        if (layer.segmentFree(i))
            ++free_total;
        if (layer.segmentOpen(i) != open[i])
            report(out, "open-flag",
                   "segment " + std::to_string(i) +
                       (open[i] ? " is a stream's open segment but "
                                  "not flagged open"
                                : " is flagged open but no stream "
                                  "has it open"));
    }
    if (layer.freeSegments() != free_total)
        report(out, "free-count",
               "layer counts " +
                   std::to_string(layer.freeSegments()) +
                   " free segments, free flags mark " +
                   std::to_string(free_total));

    // Forward/reverse bijection: the reverse index's live extents,
    // re-sorted by LBA, must describe exactly the forward map.
    std::vector<JournalEntry> from_reverse;
    layer.forEachLiveExtent(
        [&](Lba lba, Pba pba, SectorCount count) {
            from_reverse.push_back({lba, pba, count});
        });
    std::sort(from_reverse.begin(), from_reverse.end(),
              [](const JournalEntry &a, const JournalEntry &b) {
                  return a.lba < b.lba;
              });
    compareEntries(out, "reverse-bijection",
                   collectEntries(layer.extentMap()), from_reverse);

    // Liveness accounting: per-segment live counters must equal the
    // reverse-resident sectors in that segment, and free segments
    // must hold no live data.
    std::vector<SectorCount> live(layer.segmentCount(), 0);
    for (const JournalEntry &entry : from_reverse) {
        Pba cursor = entry.pba;
        const Pba end = entry.pba + entry.count;
        while (cursor < end) {
            const auto seg = static_cast<std::uint32_t>(
                (cursor - layer.logStart()) /
                layer.segmentSectors());
            const Pba seg_end =
                layer.logStart() +
                (static_cast<Pba>(seg) + 1) *
                    layer.segmentSectors();
            const Pba piece_end = std::min(end, seg_end);
            live[seg] += piece_end - cursor;
            cursor = piece_end;
        }
    }
    for (std::uint32_t i = 0; i < layer.segmentCount(); ++i) {
        if (layer.segmentLive(i) != live[i])
            report(out, "liveness-accounting",
                   "segment " + std::to_string(i) + " counts " +
                       std::to_string(layer.segmentLive(i)) +
                       " live sectors, reverse index holds " +
                       std::to_string(live[i]));
        if (layer.segmentFree(i) && layer.segmentLive(i) != 0)
            report(out, "free-segment-live",
                   "free segment " + std::to_string(i) +
                       " still counts " +
                       std::to_string(layer.segmentLive(i)) +
                       " live sectors");
    }
}

void
checkMediaCache(const MediaCacheLayer &layer,
                const JournalScan &scan, FsckReport &out)
{
    ExtentMap expected;
    SectorCount expected_used = 0;
    std::uint64_t expected_merges = 0;
    for (const JournalRecord &record : scan.records) {
        switch (record.kind) {
        case JournalRecordKind::Placement:
            for (const JournalEntry &entry : record.entries) {
                expected.mapRange(entry.lba, entry.pba,
                                  entry.count);
                expected_used += entry.count;
            }
            break;
        case JournalRecordKind::MergeReset:
            expected = ExtentMap();
            expected_used = 0;
            ++expected_merges;
            if (record.aux != expected_merges)
                report(out, "merge-count",
                       "merge epoch " +
                           std::to_string(record.epoch) +
                           " recorded merge #" +
                           std::to_string(record.aux) +
                           ", replay expected #" +
                           std::to_string(expected_merges));
            break;
        case JournalRecordKind::SegmentReset:
            report(out, "record-kind",
                   "media-cache journal holds a segment-reset "
                   "epoch " +
                       std::to_string(record.epoch));
            break;
        }
    }
    compareEntries(out, "map-log-agreement",
                   collectEntries(expected),
                   collectEntries(layer.extentMap()));
    if (layer.cacheUsedSectors() != expected_used)
        report(out, "cache-accounting",
               "cache holds " +
                   std::to_string(layer.cacheUsedSectors()) +
                   " dirty sectors, journal replay expected " +
                   std::to_string(expected_used));
    if (layer.mergeCount() != expected_merges)
        report(out, "merge-count",
               "layer merged " +
                   std::to_string(layer.mergeCount()) +
                   " times, journal recorded " +
                   std::to_string(expected_merges));
    if (layer.cachePointer() !=
        layer.cacheStart() + layer.cacheUsedSectors())
        report(out, "cache-accounting",
               "cache pointer " +
                   std::to_string(layer.cachePointer()) +
                   " disagrees with cacheStart + used = " +
                   std::to_string(layer.cacheStart() +
                                  layer.cacheUsedSectors()));
    checkPlacementBounds(out, collectEntries(layer.extentMap()),
                         layer.cacheStart(),
                         layer.cachePointer());
}

} // namespace

std::string
FsckReport::toString() const
{
    if (violations.empty())
        return "fsck: clean (" +
               std::to_string(checkedEntries) +
               " entries checked)";
    std::string text = "fsck: " +
                       std::to_string(violations.size()) +
                       " violation(s):";
    for (const FsckViolation &violation : violations)
        text += "\n  [" + violation.check + "] " +
                violation.detail;
    return text;
}

FsckReport
Fsck::check(const TranslationLayer &layer,
            const SegmentJournal &journal)
{
    FsckReport out;
    const JournalScan scan = scanJournal(journal.image());
    if (const auto *log =
            dynamic_cast<const LogStructuredLayer *>(&layer)) {
        checkLogStructured(*log, scan, out);
    } else if (const auto *finite = dynamic_cast<
                   const FiniteLogStructuredLayer *>(&layer)) {
        checkFiniteLog(*finite, scan, out);
    } else if (const auto *cache =
                   dynamic_cast<const MediaCacheLayer *>(
                       &layer)) {
        checkMediaCache(*cache, scan, out);
    } else if (!journal.empty()) {
        // Identity layers journal nothing; a non-empty journal
        // means someone attached the wrong one.
        report(out, "conventional-journal",
               "layer '" + layer.name() +
                   "' has no durable state but the journal holds " +
                   std::to_string(scan.segmentsScanned) +
                   " frames");
    }
    if (!out.violations.empty())
        telemetry::Registry::global()
            .counter("fsck_violations_total")
            .add(out.violations.size());
    return out;
}

} // namespace logseek::stl
