/**
 * @file
 * Deterministic fault injection for ingestion robustness testing.
 *
 * Storage pipelines meet truncated downloads, bit rot and
 * interrupted reads long before they meet clean traces. This
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
#include <streambuf>
#include <string>
#include <string_view>

#include "util/random.h"

namespace logseek
{

/** The fault classes the harness can inject. */
enum class FaultKind : std::uint8_t
{
    Truncate,  ///< drop a seeded-length suffix
    BitFlip,   ///< flip one seeded bit
    ShortRead, ///< deliver bytes in seeded sub-record chunks
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

} // namespace logseek

#endif // LOGSEEK_UTIL_FAULT_H
