#include "fault.h"

#include <algorithm>

#include "util/logging.h"

namespace logseek
{

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Truncate: return "truncate";
      case FaultKind::BitFlip: return "bit-flip";
      case FaultKind::ShortRead: return "short-read";
      case FaultKind::EofMidRecord: return "eof-mid-record";
    }
    return "unknown";
}

std::string
truncateAt(std::string_view bytes, std::size_t length)
{
    return std::string(bytes.substr(0, length));
}

std::string
injectTruncation(std::string_view bytes, std::uint64_t seed)
{
    if (bytes.empty())
        return {};
    Rng rng(seed);
    return truncateAt(bytes, rng.nextUint(bytes.size()));
}

std::string
injectBitFlip(std::string_view bytes, std::uint64_t seed)
{
    std::string out(bytes);
    if (out.empty())
        return out;
    Rng rng(seed);
    const std::size_t byte = rng.nextUint(out.size());
    const unsigned bit =
        static_cast<unsigned>(rng.nextUint(8));
    out[byte] = static_cast<char>(
        static_cast<unsigned char>(out[byte]) ^ (1u << bit));
    return out;
}

std::string
injectEofMidRecord(std::string_view bytes, std::size_t header_bytes,
                   std::size_t record_bytes, std::uint64_t seed)
{
    panicIf(record_bytes < 2,
            "injectEofMidRecord: record must be >= 2 bytes");
    if (bytes.size() <= header_bytes)
        return std::string(bytes);
    Rng rng(seed);
    const std::size_t records =
        (bytes.size() - header_bytes) / record_bytes;
    if (records == 0)
        return truncateAt(bytes, header_bytes);
    const std::size_t keep_records = rng.nextUint(records);
    // A strict partial record: at least 1 byte, at most width - 1.
    const std::size_t partial =
        1 + rng.nextUint(record_bytes - 1);
    return truncateAt(bytes, header_bytes +
                                 keep_records * record_bytes +
                                 partial);
}

ShortReadBuf::ShortReadBuf(std::string bytes, std::uint64_t seed,
                           std::size_t max_chunk)
    : bytes_(std::move(bytes)),
      maxChunk_(std::max<std::size_t>(1, max_chunk)), rng_(seed)
{
}

ShortReadBuf::int_type
ShortReadBuf::underflow()
{
    if (gptr() < egptr())
        return traits_type::to_int_type(*gptr());
    if (pos_ >= bytes_.size())
        return traits_type::eof();
    const std::size_t chunk =
        std::min(bytes_.size() - pos_,
                 static_cast<std::size_t>(
                     1 + rng_.nextUint(maxChunk_)));
    char *base = bytes_.data() + pos_;
    setg(base, base, base + chunk);
    pos_ += chunk;
    return traits_type::to_int_type(*gptr());
}

ShortReadStream::ShortReadStream(std::string bytes,
                                 std::uint64_t seed,
                                 std::size_t max_chunk)
    : std::istream(nullptr),
      buf_(std::move(bytes), seed, max_chunk)
{
    rdbuf(&buf_);
}

ShortWriteBuf::ShortWriteBuf(std::size_t budget, bool fail_sync)
    : budget_(budget), failSync_(fail_sync)
{
}

ShortWriteBuf::int_type
ShortWriteBuf::overflow(int_type ch)
{
    if (traits_type::eq_int_type(ch, traits_type::eof()))
        return traits_type::not_eof(ch);
    if (written_.size() >= budget_)
        return traits_type::eof();
    written_.push_back(traits_type::to_char_type(ch));
    return ch;
}

std::streamsize
ShortWriteBuf::xsputn(const char *s, std::streamsize n)
{
    const std::size_t room = budget_ - std::min(budget_,
                                                written_.size());
    const std::size_t take =
        std::min(room, static_cast<std::size_t>(n));
    written_.append(s, take);
    // Returning less than n makes the ostream raise badbit — the
    // same signal a real short write produces.
    return static_cast<std::streamsize>(take);
}

int
ShortWriteBuf::sync()
{
    return failSync_ ? -1 : 0;
}

ShortWriteStream::ShortWriteStream(std::size_t budget,
                                   bool fail_sync)
    : std::ostream(nullptr), buf_(budget, fail_sync)
{
    rdbuf(&buf_);
}

} // namespace logseek
