/**
 * @file
 * CRC-guarded record framing.
 *
 * A framed image is a flat sequence of records:
 *
 *   frame = magic "LCKP" (4 bytes)
 *           payloadLen   u32 little-endian
 *           crc32        u32 little-endian, IEEE CRC-32 of payload
 *           payload      payloadLen bytes
 *
 * The reader never trusts the image: a frame whose CRC or length
 * does not check out is skipped by scanning forward to the next
 * magic (so one flipped bit loses one record, not the tail of the
 * image), and an image that ends inside a frame — the classic torn
 * write — is truncated to its last whole record. SegmentJournal
 * frames its records this way, and the LSKC trace format guards its
 * sections with the same CRC-32.
 */

#ifndef LOGSEEK_UTIL_CHECKPOINT_H
#define LOGSEEK_UTIL_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace logseek
{

/** IEEE CRC-32 (the zlib/PNG polynomial) of the given bytes. */
std::uint32_t crc32(std::string_view bytes);

/**
 * Incremental form of crc32(): update() over consecutive slices
 * yields exactly crc32() of their concatenation, so multi-gigabyte
 * sections (the LSKC trace columns) can be checksummed through a
 * small buffer instead of one contiguous allocation.
 */
class Crc32
{
  public:
    /** Fold the next slice into the running checksum. */
    void update(std::string_view bytes);

    /** The CRC-32 of everything updated so far. */
    std::uint32_t value() const { return state_ ^ 0xffffffffu; }

  private:
    std::uint32_t state_ = 0xffffffffu;
};

/** Append one framed record to an in-memory image. */
void appendCheckpointFrame(std::string &out,
                           std::string_view payload);

/** What a (possibly damaged) framed image parsed to. */
struct CheckpointLoad
{
    /** Payloads of every intact frame, in image order. */
    std::vector<std::string> records;

    /** Frames dropped because their length or CRC was wrong. */
    std::uint64_t damagedFrames = 0;

    /** True when the image ended inside a frame (torn tail). */
    bool tornTail = false;

    /** Bytes not accounted for by an intact frame. */
    std::uint64_t bytesDropped = 0;

    bool clean() const
    {
        return damagedFrames == 0 && !tornTail;
    }
};

/** Parse an in-memory framed image; never fails — damage is
 *  reported in the result. */
CheckpointLoad parseCheckpoint(std::string_view bytes);

} // namespace logseek

#endif // LOGSEEK_UTIL_CHECKPOINT_H
