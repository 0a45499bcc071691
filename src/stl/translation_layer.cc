#include "translation_layer.h"

#include <utility>

#include "telemetry/metrics.h"

namespace logseek::stl
{

MountStats
mountStatsFrom(const JournalScan &scan)
{
    MountStats stats;
    stats.epochsApplied = scan.records.size();
    stats.segmentsScanned = scan.segmentsScanned;
    stats.tornTails = scan.tornTail ? 1 : 0;
    stats.damagedFrames = scan.damagedFrames;
    stats.truncatedEpochs = scan.truncatedEpochs;
    return stats;
}

MountStats
TranslationLayer::mountFromJournal(const SegmentJournal &journal)
{
    // Identity layers have no state to rebuild; the scan still
    // runs so the caller sees the metadata region's damage tally.
    const telemetry::ScopedTimer timer(
        &telemetry::Registry::global().histogram(
            "mount_latency_ns"));
    MountStats stats = mountStatsFrom(scanJournal(journal.image()));
    stats.epochsApplied = 0;
    return stats;
}

std::vector<Segment>
TranslationLayer::translateRead(const SectorExtent &extent) const
{
    SegmentBuffer out;
    translateReadInto(extent, out);
    return std::move(out).take();
}

std::vector<Segment>
TranslationLayer::placeWrite(const SectorExtent &extent)
{
    SegmentBuffer out;
    placeWriteInto(extent, out);
    return std::move(out).take();
}

void
mergePhysicallyContiguousInPlace(SegmentBuffer &segments)
{
    if (segments.size() < 2)
        return;
    std::size_t out = 0;
    for (std::size_t i = 1; i < segments.size(); ++i) {
        Segment &last = segments[out];
        const Segment &next = segments[i];
        const bool physically_adjacent =
            last.pba + last.logical.count == next.pba;
        const bool logically_adjacent =
            last.logical.end() == next.logical.start;
        if (physically_adjacent && logically_adjacent) {
            last.logical.count += next.logical.count;
            last.mapped = last.mapped || next.mapped;
        } else if (++out != i) {
            // A run that merged with nothing is already in place;
            // rewriting it would slow the reads of the buffer that
            // follow the merge.
            segments[out] = next;
        }
    }
    segments.truncate(out + 1);
}

} // namespace logseek::stl
