/**
 * @file
 * Durable translation metadata: the on-media segment-header journal.
 *
 * The simulator moves no real data, so durability is modeled the way
 * SMORE models it on a real drive: every placement writes a
 * self-identifying header next to the data — (LBA, PBA, count)
 * triples plus a monotonically increasing epoch — and a crashed host
 * recovers the whole translation state by scanning those headers in
 * log order. SegmentJournal is the byte image of that metadata
 * region: an append-only sequence of CRC-guarded frames in the
 * util/checkpoint LCKP framing (magic + length + CRC32 + payload),
 * one frame per placement group, so the existing torn-tail /
 * damaged-frame discrimination applies to segment headers verbatim.
 *
 * One frame == one epoch == one atomic translation operation (one
 * host write's placement, one cleaning relocation, one segment
 * reclaim, one media-cache merge). A frame is either fully intact
 * (the op is durable) or torn/damaged (the op never happened), which
 * is what makes "truncate to the last consistent epoch" crisp: the
 * scan replays intact frames while epochs stay consecutive and stops
 * at the first gap — state after a missing epoch cannot be trusted.
 *
 * The journal also records the post-op frontier (and its zone-
 * crossing count / open-segment index), so mount() restores the
 * write position exactly instead of re-deriving guard-skip or
 * free-segment arithmetic — the classic source of recovery drift.
 */

#ifndef LOGSEEK_STL_SEGMENT_JOURNAL_H
#define LOGSEEK_STL_SEGMENT_JOURNAL_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace logseek::stl
{

/** One placed segment header: where a logical range landed. */
struct JournalEntry
{
    Lba lba = 0;
    Pba pba = 0;
    SectorCount count = 0;

    bool operator==(const JournalEntry &) const = default;
};

/** What kind of translation operation an epoch records. */
enum class JournalRecordKind : std::uint8_t
{
    /** Segments were placed (host write, defrag or cleaning
     *  relocation); entries carry the placements. */
    Placement = 1,

    /** A finite-log segment was reclaimed; aux is the victim
     *  segment index. */
    SegmentReset = 2,

    /** A media-cache merge returned the address space to LBA
     *  order; the whole cache map is dropped. */
    MergeReset = 3,
};

/** One decoded journal frame (one epoch). */
struct JournalRecord
{
    JournalRecordKind kind = JournalRecordKind::Placement;

    /** Monotonic epoch; the first frame of a journal is 1. */
    std::uint64_t epoch = 0;

    /** Write position after the op (frontier / writePtr /
     *  cachePtr). */
    Pba frontierAfter = 0;

    /** Kind-specific: zone crossings after the op (Placement on a
     *  frontier layer), open-segment index (finite log), victim
     *  segment (SegmentReset), merge count (MergeReset). */
    std::uint64_t aux = 0;

    std::vector<JournalEntry> entries;

    bool operator==(const JournalRecord &) const = default;
};

/** Binary payload of one record (the bytes inside the frame). */
std::string encodeJournalRecord(const JournalRecord &record);

/** Strict decode; false on any truncation or trailing bytes. */
bool decodeJournalRecord(std::string_view payload,
                         JournalRecord &out);

/** What a (possibly crashed) journal image scanned to. */
struct JournalScan
{
    /** The consistent prefix: intact frames with consecutive
     *  epochs starting at 1. Mount replays exactly these. */
    std::vector<JournalRecord> records;

    /** Intact frames visited (including any truncated tail). */
    std::uint64_t segmentsScanned = 0;

    /** Frames dropped for a bad length or CRC. */
    std::uint64_t damagedFrames = 0;

    /** True when the image ended inside a frame (torn tail). */
    bool tornTail = false;

    /** Intact frames discarded because an epoch was missing or a
     *  payload did not decode — everything after the last
     *  consistent epoch. */
    std::uint64_t truncatedEpochs = 0;

    /** Bytes not accounted for by an intact frame. */
    std::uint64_t bytesDropped = 0;

    bool
    clean() const
    {
        return damagedFrames == 0 && !tornTail &&
               truncatedEpochs == 0;
    }
};

/**
 * Scan a journal image: parse the LCKP frames (torn-tail and
 * damaged-frame discrimination included), decode the records, and
 * truncate to the last consistent epoch. Never fails — damage is
 * reported in the result. Bumps recovery_segments_scanned_total and
 * recovery_torn_tails_total (self-gated on the telemetry switch).
 */
JournalScan scanJournal(std::string_view image);

/**
 * The append-only metadata image one translation layer writes to.
 * Owned by the caller of the replay (it must survive the crash that
 * destroys the engine); a layer holds only a non-owning pointer.
 */
class SegmentJournal
{
  public:
    /** Append one epoch; the record's epoch field is assigned
     *  here (monotonic from 1). */
    void record(JournalRecordKind kind, Pba frontier_after,
                std::uint64_t aux,
                std::span<const JournalEntry> entries);

    /** The raw on-media byte image. */
    const std::string &image() const { return image_; }

    /** Epochs recorded so far. */
    std::uint64_t epochs() const { return epoch_; }

    bool empty() const { return image_.empty(); }

    /** Drop everything (a fresh journal for a fresh run). */
    void clear();

    /**
     * Model the crash's effect on the metadata region: everything
     * up to the last frame was flushed; of the in-flight last
     * frame, a seeded prefix reached the media. The cut point is a
     * pure hash of (seed, image size), so equal seeds tear
     * identically across --jobs. The torn
     * frame can come out empty (clean boundary — the op missed the
     * media entirely) or whole (the op was flushed just in time);
     * anything in between is the classic torn tail.
     */
    void tearTail(std::uint64_t seed);

  private:
    std::string image_;
    std::uint64_t epoch_ = 0;
};

/** What one mount (log-scan recovery) did. */
struct MountStats
{
    /** Epochs replayed into the layer. */
    std::uint64_t epochsApplied = 0;

    /** Intact frames the scan visited. */
    std::uint64_t segmentsScanned = 0;

    /** 1 when the image ended in a torn frame. */
    std::uint64_t tornTails = 0;

    /** Frames dropped for a bad CRC or length. */
    std::uint64_t damagedFrames = 0;

    /** Intact frames beyond the last consistent epoch. */
    std::uint64_t truncatedEpochs = 0;

    bool operator==(const MountStats &) const = default;
};

/** The damage tally of a scan, as mount() reports it. */
MountStats mountStatsFrom(const JournalScan &scan);

} // namespace logseek::stl

#endif // LOGSEEK_STL_SEGMENT_JOURNAL_H
