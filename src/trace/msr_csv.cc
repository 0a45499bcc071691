#include "msr_csv.h"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"
#include "util/logging.h"

namespace logseek::trace
{

namespace
{

/** Filetime ticks (100 ns) per microsecond. */
constexpr std::uint64_t kTicksPerUs = 10;

/**
 * Split a CSV line into the caller's reusable field vector (no
 * quoting in MSR traces). Taking the vector by reference instead
 * of returning a fresh one removes the per-line allocation that
 * dominated the parse profile; perf_ingest tracks the resulting
 * line rate.
 */
void
splitCsvInto(std::string_view line,
             std::vector<std::string_view> &fields)
{
    fields.clear();
    std::size_t begin = 0;
    while (true) {
        const std::size_t comma = line.find(',', begin);
        if (comma == std::string_view::npos) {
            fields.push_back(line.substr(begin));
            break;
        }
        fields.push_back(line.substr(begin, comma - begin));
        begin = comma + 1;
    }
}

/** Outcome of one std::from_chars field parse, so malformed text
 *  and overflowing values map onto distinct error messages. */
enum class FieldParse
{
    Ok,
    Malformed,
    OutOfRange,
};

template <typename T>
FieldParse
parseNumber(std::string_view text, T &out)
{
    const char *first = text.data();
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec == std::errc::result_out_of_range)
        return FieldParse::OutOfRange;
    if (ec != std::errc{} || ptr != last)
        return FieldParse::Malformed;
    return FieldParse::Ok;
}

/** "bad <field>" or "<field> out of range" for a failed parse. */
std::string
fieldError(FieldParse parse, const char *field)
{
    return parse == FieldParse::OutOfRange
               ? std::string(field) + " out of range"
               : "bad " + std::string(field);
}

} // namespace

StatusOr<MsrParseResult>
tryParseMsrCsv(std::istream &in, const std::string &name,
               const MsrCsvOptions &options)
{
    MsrParseResult result;
    result.trace.setName(name);
    MsrParseSummary &summary = result.summary;
    std::string line;
    std::uint64_t line_number = 0;
    bool have_epoch = false;
    std::uint64_t epoch_ticks = 0;
    Status error;

    // The warn cap below silences repetitive messages; these
    // counters keep every suppressed event countable in a metrics
    // snapshot.
    auto &registry = telemetry::Registry::global();
    telemetry::Counter &skipped_lines =
        registry.counter("trace_ingest_skipped_lines_total");
    telemetry::Counter &underflows = registry.counter(
        "trace_ingest_timestamp_underflows_total");
    telemetry::Counter &parsed_records =
        registry.counter("trace_ingest_records_total");
    telemetry::Counter &ingest_bytes = registry.counter(
        "ingest_bytes_total", "format=\"csv\"");
    telemetry::Counter &ingest_records = registry.counter(
        "ingest_records_total", "format=\"csv\"");

    // Returns false when the parse must stop with `error` set.
    auto reject = [&](const std::string &why) {
        if (!options.skipMalformed) {
            error = dataLossError(
                "msr csv line " + std::to_string(line_number) +
                ": " + why);
            return false;
        }
        ++summary.skipped;
        skipped_lines.add();
        if (summary.skipped <= options.maxWarnings)
            warn("msr csv line " + std::to_string(line_number) +
                 " skipped: " + why);
        if (summary.skipped > options.errorBudget) {
            error = resourceExhaustedError(
                "msr csv '" + name + "': error budget exceeded: " +
                std::to_string(summary.skipped) +
                " malformed lines (budget " +
                std::to_string(options.errorBudget) + ")");
            return false;
        }
        return true;
    };

    std::vector<std::string_view> fields;
    while (std::getline(in, line)) {
        ++line_number;
        // getline consumed the newline too; count it so the byte
        // counter tracks the bytes actually read off the stream.
        ingest_bytes.add(line.size() + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        ++summary.lines;

        splitCsvInto(line, fields);
        if (fields.size() < 6) {
            if (!reject("expected at least 6 fields, got " +
                        std::to_string(fields.size())))
                return error;
            continue;
        }

        std::uint64_t ticks = 0;
        int disk = 0;
        std::uint64_t offset_bytes = 0;
        std::uint64_t length_bytes = 0;
        FieldParse parse = parseNumber(fields[0], ticks);
        if (parse != FieldParse::Ok) {
            if (!reject(fieldError(parse, "timestamp")))
                return error;
            continue;
        }
        parse = parseNumber(fields[2], disk);
        if (parse != FieldParse::Ok) {
            if (!reject(fieldError(parse, "disk number")))
                return error;
            continue;
        }
        IoType type;
        if (fields[3] == "Read" || fields[3] == "read") {
            type = IoType::Read;
        } else if (fields[3] == "Write" || fields[3] == "write") {
            type = IoType::Write;
        } else {
            if (!reject("bad request type"))
                return error;
            continue;
        }
        parse = parseNumber(fields[4], offset_bytes);
        if (parse != FieldParse::Ok) {
            if (!reject(fieldError(parse, "offset")))
                return error;
            continue;
        }
        parse = parseNumber(fields[5], length_bytes);
        if (parse != FieldParse::Ok) {
            if (!reject(fieldError(parse, "length")))
                return error;
            continue;
        }
        if (length_bytes == 0) {
            if (!reject("zero-length request"))
                return error;
            continue;
        }

        if (options.diskFilter >= 0 && disk != options.diskFilter) {
            ++summary.filtered;
            continue;
        }

        if (!have_epoch) {
            epoch_ticks = ticks;
            have_epoch = true;
        }
        if (ticks < epoch_ticks) {
            // Non-monotonic clock: clamp to the epoch but make the
            // anomaly visible instead of silently flattening it.
            if (summary.timestampUnderflows == 0)
                warn("msr csv line " +
                     std::to_string(line_number) +
                     ": timestamp precedes the first record's; "
                     "clamping to 0 (counted in the summary)");
            ++summary.timestampUnderflows;
            underflows.add();
        }
        const std::uint64_t rel_ticks =
            ticks >= epoch_ticks ? ticks - epoch_ticks : 0;

        const Lba lba = offset_bytes / kSectorBytes;
        const std::uint64_t end_byte = offset_bytes + length_bytes;
        const Lba end_lba =
            (end_byte + kSectorBytes - 1) / kSectorBytes;
        result.trace.append(IoRecord{rel_ticks / kTicksPerUs, type,
                                     SectorExtent{lba,
                                                  end_lba - lba}});
        ++summary.parsed;
        parsed_records.add();
        ingest_records.add();
    }

    if (in.bad()) {
        return dataLossError("msr csv '" + name +
                             "': stream read error after line " +
                             std::to_string(line_number));
    }
    // A trace with no valid line is not a trace, however few
    // lines were skipped to get there.
    if (summary.skipped > 0 && summary.parsed == 0)
        return dataLossError(
            "msr csv '" + name + "': no valid line (" +
            std::to_string(summary.skipped) + " of " +
            std::to_string(summary.lines) + " lines malformed)");
    if (summary.skipped > 0) {
        warn("msr csv '" + name + "': skipped " +
             std::to_string(summary.skipped) + " of " +
             std::to_string(summary.lines) + " lines");
    }
    return result;
}

StatusOr<MsrParseResult>
tryParseMsrCsvFile(const std::string &path, const std::string &name,
                   const MsrCsvOptions &options)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        const int saved_errno = errno;
        return notFoundError("cannot open trace file: " + path +
                             ": " + std::strerror(saved_errno));
    }
    return tryParseMsrCsv(in, name, options);
}

Trace
parseMsrCsv(std::istream &in, const std::string &name,
            const MsrCsvOptions &options)
{
    StatusOr<MsrParseResult> result =
        tryParseMsrCsv(in, name, options);
    if (!result.ok())
        result.status().orFatal();
    return std::move(result).value().trace;
}

Trace
parseMsrCsvFile(const std::string &path, const std::string &name,
                const MsrCsvOptions &options)
{
    StatusOr<MsrParseResult> result =
        tryParseMsrCsvFile(path, name, options);
    if (!result.ok())
        result.status().orFatal();
    return std::move(result).value().trace;
}

void
writeMsrCsv(std::ostream &out, const Trace &trace,
            const std::string &hostname, int disk_number)
{
    for (const auto &record : trace) {
        out << record.timestampUs * kTicksPerUs << ',' << hostname
            << ',' << disk_number << ',' << toString(record.type)
            << ',' << sectorsToBytes(record.extent.start) << ','
            << record.extent.bytes() << ",0\n";
    }
}

} // namespace logseek::trace
