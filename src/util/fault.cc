#include "fault.h"

#include <algorithm>

namespace logseek
{

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Truncate: return "truncate";
      case FaultKind::BitFlip: return "bit-flip";
      case FaultKind::ShortRead: return "short-read";
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

} // namespace logseek
