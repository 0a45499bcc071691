/**
 * @file
 * Trace file formats and their detection.
 *
 * Two on-disk formats exist: MSR-Cambridge CSV (trace/msr_csv.h)
 * and the columnar binary LSKC (trace/lskc.h). TraceFormat names
 * them; Auto resolves by magic sniff for existing files and by
 * extension for files about to be written. parseTraceFormat is the
 * strict parser behind trace_convert's --trace-format.
 */

#ifndef LOGSEEK_TRACE_FORMAT_H
#define LOGSEEK_TRACE_FORMAT_H

#include <string>
#include <string_view>

#include "util/status.h"

namespace logseek::trace
{

/** A trace file format, or Auto for "detect it". */
enum class TraceFormat
{
    Auto,
    Csv,
    Lskc,
};

/** Lower-case name, as the CLI spells it ("auto", "csv", ...). */
const char *toString(TraceFormat format);

/**
 * Strict parse of a --trace-format value: exactly "auto", "csv" or
 * "lskc" (lower case). Anything else is InvalidArgument naming the
 * offending value and the accepted set.
 */
StatusOr<TraceFormat> parseTraceFormat(std::string_view text);

/**
 * Format implied by a path's extension (".csv" or ".lskc",
 * case-insensitive); Auto when the extension implies nothing.
 */
TraceFormat formatFromPath(const std::string &path);

/**
 * Resolve the format of an existing trace file: `declared` wins
 * unless it is Auto, in which case the file's first bytes are
 * sniffed (the "LSKC" magic; anything else is CSV — MSR traces
 * have no magic, and the CSV parser rejects what is not CSV).
 * NotFound/Unavailable when the file cannot be read.
 */
StatusOr<TraceFormat> resolveTraceFormat(const std::string &path,
                                         TraceFormat declared);

} // namespace logseek::trace

#endif // LOGSEEK_TRACE_FORMAT_H
