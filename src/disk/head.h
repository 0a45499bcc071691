/**
 * @file
 * Disk-head position tracking and seek detection.
 *
 * This implements the paper's seek definition (§II): a seek occurs
 * iff an I/O operation starts at a sector other than the one
 * immediately following the previous I/O operation, and is a read or
 * write seek according to the type of the second operation. Seek
 * distance is the signed byte offset from the expected next sector
 * to the start of the new operation. Each access is classified
 * against where the previous one ended, so a replay classifies its
 * accesses one at a time, in order.
 */

#ifndef LOGSEEK_DISK_HEAD_H
#define LOGSEEK_DISK_HEAD_H

#include <cstdint>

#include "trace/record.h"
#include "util/extent.h"

namespace logseek::disk
{

/** Outcome of one media access. */
struct SeekInfo
{
    /** True if the access required a seek. */
    bool seeked = false;

    /**
     * Signed distance in bytes from the sector following the
     * previous access to the first sector of this access; 0 when no
     * seek occurred.
     */
    std::int64_t distanceBytes = 0;

    /** Type of the access (classifies the seek). */
    trace::IoType type = trace::IoType::Read;

    bool operator==(const SeekInfo &) const = default;
};

/**
 * Tracks the sector following the most recent media access.
 *
 * The head starts as if the previous I/O ended at sector 0, so the
 * very first access seeks unless it starts at sector 0; this
 * convention is applied identically to every translation variant and
 * therefore cancels in all seek-amplification ratios.
 */
class DiskHead
{
  public:
    /**
     * Perform one media access covering extent.
     *
     * @param extent Physical sector range accessed.
     * @param type Whether this access is a read or a write.
     * @return Seek classification for this access.
     */
    SeekInfo access(const SectorExtent &extent, trace::IoType type);

    /** Sector the next access must start at to avoid a seek. */
    std::uint64_t expectedNext() const { return expectedNext_; }

    /** Total accesses performed. */
    std::uint64_t accessCount() const { return accessCount_; }

    /** Reset to the initial parked-at-zero state. */
    void reset();

  private:
    std::uint64_t expectedNext_ = 0;
    std::uint64_t accessCount_ = 0;
};

} // namespace logseek::disk

#endif // LOGSEEK_DISK_HEAD_H
