#include "convert.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sys/stat.h>

#include "telemetry/trace_writer.h"
#include "trace/input.h"
#include "trace/lskc.h"
#include "trace/msr_csv.h"

namespace logseek::trace
{

namespace
{

/** "dir/a.csv" -> "a" (the CSV default workload name). */
std::string
stemOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::size_t begin =
        slash == std::string::npos ? 0 : slash + 1;
    std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos || dot <= begin)
        dot = path.size();
    return path.substr(begin, dot - begin);
}

StatusOr<std::uint64_t>
fileBytes(const std::string &path)
{
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0) {
        const int saved_errno = errno;
        return notFoundError("cannot stat trace file: " + path +
                             ": " + std::strerror(saved_errno));
    }
    return static_cast<std::uint64_t>(st.st_size);
}

} // namespace

StatusOr<Trace>
tryLoadTraceFile(const std::string &path, TraceFormat format,
                 const std::string &name)
{
    StatusOr<TraceFormat> resolved =
        resolveTraceFormat(path, format);
    if (!resolved.ok())
        return resolved.status();
    switch (resolved.value()) {
    case TraceFormat::Csv: {
        StatusOr<MsrParseResult> parsed = tryParseMsrCsvFile(
            path, name.empty() ? stemOf(path) : name);
        if (!parsed.ok())
            return parsed.status();
        return std::move(parsed).value().trace;
    }
    case TraceFormat::Lskc:
        return tryReadLskcFile(path);
    case TraceFormat::Auto:
        break;
    }
    return internalError("resolveTraceFormat returned Auto for " +
                         path);
}

Status
tryWriteTraceFile(const std::string &path, const Trace &trace,
                  TraceFormat format)
{
    const TraceFormat out = format != TraceFormat::Auto
                                ? format
                                : formatFromPath(path);
    switch (out) {
    case TraceFormat::Csv: {
        std::ofstream os(path, std::ios::binary);
        if (!os) {
            const int saved_errno = errno;
            return unavailableError(
                "cannot create trace file: " + path + ": " +
                std::strerror(saved_errno));
        }
        writeMsrCsv(os, trace);
        os.flush();
        return os ? Status()
                  : unavailableError("short write: " + path);
    }
    case TraceFormat::Lskc:
        return tryWriteLskcFile(path, trace);
    case TraceFormat::Auto:
        break;
    }
    return invalidArgumentError(
        "cannot infer the output format of '" + path +
        "'; name it *.csv or *.lskc or pass "
        "--trace-format");
}

StatusOr<ConvertSummary>
tryConvertTraceFile(const std::string &in_path,
                    const std::string &out_path,
                    TraceFormat in_format, TraceFormat out_format)
{
    const telemetry::ScopedSpan span(
        "trace-convert:" + in_path, "ingest");

    StatusOr<TraceFormat> resolved_in =
        resolveTraceFormat(in_path, in_format);
    if (!resolved_in.ok())
        return resolved_in.status();
    TraceFormat out = out_format != TraceFormat::Auto
                          ? out_format
                          : formatFromPath(out_path);
    if (out == TraceFormat::Auto)
        return invalidArgumentError(
            "cannot infer the output format of '" + out_path +
            "'; name it *.csv or *.lskc or pass "
            "--trace-format");

    StatusOr<Trace> trace =
        tryLoadTraceFile(in_path, resolved_in.value());
    if (!trace.ok())
        return trace.status();

    const Status written =
        tryWriteTraceFile(out_path, trace.value(), out);
    if (!written.ok())
        return written;

    ConvertSummary summary;
    summary.inFormat = resolved_in.value();
    summary.outFormat = out;
    summary.records = trace.value().size();
    StatusOr<std::uint64_t> in_bytes = fileBytes(in_path);
    StatusOr<std::uint64_t> out_bytes = fileBytes(out_path);
    summary.inBytes = in_bytes.ok() ? in_bytes.value() : 0;
    summary.outBytes = out_bytes.ok() ? out_bytes.value() : 0;
    return summary;
}

} // namespace logseek::trace
