/**
 * @file
 * Format-agnostic trace loading and conversion.
 *
 * tryLoadTraceFile reads any supported trace file (MSR CSV or LSKC)
 * into an in-RAM Trace; tryConvertTraceFile rewrites a trace
 * file from one format to another — the tools-level entry point
 * behind bench/trace_convert and the --trace-format/--convert-out
 * CLI flags. Conversion is deterministic: converting the same
 * input twice produces byte-identical output (the ingest smoke
 * pins this for LSKC).
 */

#ifndef LOGSEEK_TRACE_CONVERT_H
#define LOGSEEK_TRACE_CONVERT_H

#include <cstdint>
#include <string>

#include "trace/format.h"
#include "trace/trace.h"
#include "util/status.h"

namespace logseek::trace
{

/**
 * Load a trace file of any supported format into an in-RAM Trace.
 * `format` Auto sniffs the file (resolveTraceFormat). `name` is
 * used for CSV traces, which do not carry one; empty derives it
 * from the file name. LSKC traces keep their embedded name.
 */
StatusOr<Trace> tryLoadTraceFile(
    const std::string &path,
    TraceFormat format = TraceFormat::Auto,
    const std::string &name = "");

/** What a conversion did. */
struct ConvertSummary
{
    TraceFormat inFormat = TraceFormat::Auto;
    TraceFormat outFormat = TraceFormat::Auto;
    std::uint64_t records = 0;
    std::uint64_t inBytes = 0;
    std::uint64_t outBytes = 0;
};

/**
 * Write an in-RAM trace to `path` in `format`. Auto derives the
 * format from the path's extension and is InvalidArgument when
 * the extension implies nothing. Deterministic for every format:
 * the same trace always produces the same bytes.
 */
Status tryWriteTraceFile(
    const std::string &path, const Trace &trace,
    TraceFormat format = TraceFormat::Auto);

/**
 * Convert a trace file to another format. Input format Auto
 * sniffs the file; output format Auto derives from the output
 * path's extension and is InvalidArgument when the extension
 * implies nothing. Converting to the input's own format is
 * allowed (it canonicalizes the file).
 */
StatusOr<ConvertSummary> tryConvertTraceFile(
    const std::string &in_path, const std::string &out_path,
    TraceFormat in_format = TraceFormat::Auto,
    TraceFormat out_format = TraceFormat::Auto);

} // namespace logseek::trace

#endif // LOGSEEK_TRACE_CONVERT_H
