#include "format.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>

namespace logseek::trace
{

const char *
toString(TraceFormat format)
{
    switch (format) {
    case TraceFormat::Auto:
        return "auto";
    case TraceFormat::Csv:
        return "csv";
    case TraceFormat::Lskc:
        return "lskc";
    }
    return "auto";
}

StatusOr<TraceFormat>
parseTraceFormat(std::string_view text)
{
    if (text == "auto")
        return TraceFormat::Auto;
    if (text == "csv")
        return TraceFormat::Csv;
    if (text == "lskc")
        return TraceFormat::Lskc;
    return invalidArgumentError(
        "bad trace format '" + std::string(text) +
        "' (expected auto, csv or lskc)");
}

TraceFormat
formatFromPath(const std::string &path)
{
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos)
        return TraceFormat::Auto;
    std::string ext = path.substr(dot + 1);
    std::transform(ext.begin(), ext.end(), ext.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(
                           std::tolower(c));
                   });
    if (ext == "csv")
        return TraceFormat::Csv;
    if (ext == "lskc")
        return TraceFormat::Lskc;
    return TraceFormat::Auto;
}

StatusOr<TraceFormat>
resolveTraceFormat(const std::string &path, TraceFormat declared)
{
    if (declared != TraceFormat::Auto)
        return declared;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        const int saved_errno = errno;
        return notFoundError("cannot open trace file: " + path +
                             ": " + std::strerror(saved_errno));
    }
    char magic[4] = {};
    in.read(magic, sizeof(magic));
    // Anything without the LSKC magic, a file shorter than one
    // included, goes to the CSV parser, which reports what it is.
    if (in.gcount() == sizeof(magic) &&
        std::memcmp(magic, "LSKC", 4) == 0)
        return TraceFormat::Lskc;
    return TraceFormat::Csv;
}

} // namespace logseek::trace
