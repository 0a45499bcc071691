/**
 * @file
 * Deterministic fault injection for ingestion robustness testing.
 *
 * Storage pipelines meet truncated downloads, bit rot, interrupted
 * reads and mid-record EOF long before they meet clean traces. This
 * header provides seeded, reproducible versions of those faults so
 * tests can sweep hundreds of corruption scenarios and assert that
 * every one surfaces as a typed Status error or a counted skip —
 * never undefined behavior or a crash. All injection is pure: the
 * original bytes are untouched and equal seeds give equal faults.
 */

#ifndef LOGSEEK_UTIL_FAULT_H
#define LOGSEEK_UTIL_FAULT_H

#include <cstdint>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>

#include "util/random.h"

namespace logseek
{

/** The fault classes the harness can inject. */
enum class FaultKind : std::uint8_t
{
    Truncate,     ///< drop a seeded-length suffix
    BitFlip,      ///< flip one seeded bit
    ShortRead,    ///< deliver bytes in seeded sub-record chunks
    EofMidRecord, ///< end the stream inside a fixed-width record
};

/** Printable name of a FaultKind ("truncate", "bit-flip", ...). */
const char *toString(FaultKind kind);

/** Truncate to exactly length bytes (clamped to the input size). */
std::string truncateAt(std::string_view bytes, std::size_t length);

/**
 * Truncate at a seeded offset in [0, size); the result is always a
 * proper prefix of the input (empty input comes back empty).
 */
std::string injectTruncation(std::string_view bytes,
                             std::uint64_t seed);

/** Flip one seeded bit; a no-op on empty input. */
std::string injectBitFlip(std::string_view bytes,
                          std::uint64_t seed);

/**
 * Cut the stream inside a fixed-width record: keep the header and a
 * seeded number of whole records, then a seeded strict fraction of
 * the next record. Models a writer that died mid-append.
 *
 * @param header_bytes Size of the non-record preamble.
 * @param record_bytes Fixed record width (must be >= 2 so a strict
 *        partial record exists).
 */
std::string injectEofMidRecord(std::string_view bytes,
                               std::size_t header_bytes,
                               std::size_t record_bytes,
                               std::uint64_t seed);

/**
 * A read-only streambuf over an in-memory byte string that refills
 * in seeded chunks of 1..maxChunk bytes, reproducing short reads
 * from slow or interrupted media. Sequential access only (the trace
 * readers never seek).
 */
class ShortReadBuf : public std::streambuf
{
  public:
    ShortReadBuf(std::string bytes, std::uint64_t seed,
                 std::size_t max_chunk = 7);

  protected:
    int_type underflow() override;

  private:
    std::string bytes_;
    std::size_t pos_ = 0;
    std::size_t maxChunk_;
    Rng rng_;
};

/** An istream owning a ShortReadBuf. */
class ShortReadStream : public std::istream
{
  public:
    explicit ShortReadStream(std::string bytes, std::uint64_t seed,
                             std::size_t max_chunk = 7);

  private:
    ShortReadBuf buf_;
};

/**
 * A write-side streambuf with a byte budget, reproducing a disk
 * that fills up (short write) or a flush that fails. Bytes within
 * the budget are captured and readable via written(), so tests can
 * assert exactly which prefix reached "media" before the fault.
 */
class ShortWriteBuf : public std::streambuf
{
  public:
    /**
     * @param budget    Bytes accepted before writes start failing.
     * @param fail_sync When true, every flush reports failure even
     *                  if the budget was never exhausted.
     */
    explicit ShortWriteBuf(std::size_t budget,
                           bool fail_sync = false);

    /** The prefix that fit within the budget. */
    const std::string &written() const { return written_; }

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s,
                           std::streamsize n) override;
    int sync() override;

  private:
    std::size_t budget_;
    bool failSync_;
    std::string written_;
};

/** An ostream owning a ShortWriteBuf. */
class ShortWriteStream : public std::ostream
{
  public:
    explicit ShortWriteStream(std::size_t budget,
                              bool fail_sync = false);

    const std::string &written() const { return buf_.written(); }

  private:
    ShortWriteBuf buf_;
};

} // namespace logseek

#endif // LOGSEEK_UTIL_FAULT_H
