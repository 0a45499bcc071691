#include "report.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

namespace logseek::sweep
{

namespace
{

/** Full-precision double rendering (round-trippable). */
std::string
formatExact(double value)
{
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << value;
    return out.str();
}

/** The deterministic numeric fields of one row, in column order. */
struct Field
{
    const char *name;
    std::string value;
};

std::vector<Field>
resultFields(const stl::SimResult &result)
{
    return {
        {"reads", std::to_string(result.reads)},
        {"writes", std::to_string(result.writes)},
        {"readSeeks", std::to_string(result.readSeeks)},
        {"writeSeeks", std::to_string(result.writeSeeks)},
        {"fragmentedReads",
         std::to_string(result.fragmentedReads)},
        {"readFragments", std::to_string(result.readFragments)},
        {"cacheHits", std::to_string(result.cacheHits)},
        {"cacheMisses", std::to_string(result.cacheMisses)},
        {"prefetchHits", std::to_string(result.prefetchHits)},
        {"defragRewrites", std::to_string(result.defragRewrites)},
        {"defragBytes", std::to_string(result.defragBytes)},
        {"mediaReadBytes", std::to_string(result.mediaReadBytes)},
        {"mediaWriteBytes",
         std::to_string(result.mediaWriteBytes)},
        {"hostWriteBytes", std::to_string(result.hostWriteBytes)},
        {"cleaningReadBytes",
         std::to_string(result.cleaningReadBytes)},
        {"cleaningWriteBytes",
         std::to_string(result.cleaningWriteBytes)},
        {"cleaningSeeks", std::to_string(result.cleaningSeeks)},
        {"cleaningMerges", std::to_string(result.cleaningMerges)},
        {"staticFragments",
         std::to_string(result.staticFragments)},
        {"deviceErrorLogDropped",
         std::to_string(result.deviceErrorLogDropped)},
        {"gcVictimLiveBytes",
         std::to_string(result.gcVictimLiveBytes)},
        {"gcVictimSpanBytes",
         std::to_string(result.gcVictimSpanBytes)},
        {"seekTimeSec", formatExact(result.seekTimeSec)},
        {"writeAmplification",
         formatExact(result.writeAmplification())},
    };
}

std::string
csvQuote(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeJson(std::ostream &out, const SweepResult &sweep,
          bool with_telemetry)
{
    out << "{\n  \"sweep\": {\n    \"workloads\": [";
    for (std::size_t i = 0; i < sweep.workloads.size(); ++i)
        out << (i ? ", " : "") << '"'
            << jsonEscape(sweep.workloads[i]) << '"';
    out << "],\n    \"configs\": [";
    for (std::size_t i = 0; i < sweep.configs.size(); ++i)
        out << (i ? ", " : "") << '"'
            << jsonEscape(sweep.configs[i]) << '"';
    out << "]";
    if (with_telemetry) {
        const SweepTelemetry &t = sweep.telemetry;
        out << ",\n    \"telemetry\": {\"jobs\": " << t.jobs
            << ", \"wallSec\": " << formatExact(t.wallSec)
            << ", \"replaySec\": " << formatExact(t.replaySec)
            << ", \"runs\": " << t.runs
            << ", \"failedRuns\": " << t.failedRuns
            << ", \"ops\": " << t.ops
            << ", \"opsPerSec\": " << formatExact(t.opsPerSec())
            << "}";
    }
    out << "\n  },\n  \"rows\": [\n";
    for (std::size_t i = 0; i < sweep.rows.size(); ++i) {
        const RunRow &row = sweep.rows[i];
        out << "    {\"workload\": \""
            << jsonEscape(row.key.workload) << "\", \"config\": \""
            << jsonEscape(row.key.configLabel) << "\", \"ok\": "
            << (row.status.ok() ? "true" : "false");
        if (!row.status.ok())
            out << ", \"error\": \""
                << jsonEscape(row.status.message()) << '"';
        out << ", \"ops\": " << row.ops;
        if (row.status.ok())
            for (const Field &field : resultFields(row.result))
                out << ", \"" << field.name
                    << "\": " << field.value;
        if (with_telemetry)
            out << ", \"wallSec\": " << formatExact(row.wallSec)
                << ", \"opsPerSec\": "
                << formatExact(row.opsPerSec());
        out << '}' << (i + 1 < sweep.rows.size() ? "," : "")
            << '\n';
    }
    out << "  ]\n}\n";
}

void
writeCsv(std::ostream &out, const SweepResult &sweep,
         bool with_telemetry)
{
    out << "workload,config,ok,error,ops";
    // Column names come from an empty result: the field list is
    // static.
    for (const Field &field : resultFields(stl::SimResult{}))
        out << ',' << field.name;
    if (with_telemetry)
        out << ",wallSec,opsPerSec";
    out << '\n';

    for (const RunRow &row : sweep.rows) {
        out << csvQuote(row.key.workload) << ','
            << csvQuote(row.key.configLabel) << ','
            << (row.status.ok() ? "true" : "false") << ','
            << csvQuote(row.status.ok() ? ""
                                        : row.status.message())
            << ',' << row.ops;
        if (row.status.ok()) {
            for (const Field &field : resultFields(row.result))
                out << ',' << field.value;
        } else {
            for (const Field &field :
                 resultFields(stl::SimResult{})) {
                (void)field;
                out << ',';
            }
        }
        if (with_telemetry)
            out << ',' << formatExact(row.wallSec) << ','
                << formatExact(row.opsPerSec());
        out << '\n';
    }
}

namespace
{

bool
writeFile(const std::string &path, const SweepResult &sweep,
          void (*writer)(std::ostream &, const SweepResult &, bool))
{
    if (path == "-") {
        writer(std::cout, sweep, true);
        return true;
    }
    std::ofstream file(path);
    if (!file) {
        std::cerr << "warn: cannot open report file '" << path
                  << "'\n";
        return false;
    }
    writer(file, sweep, true);
    return true;
}

} // namespace

bool
writeJsonFile(const std::string &path, const SweepResult &sweep)
{
    return writeFile(path, sweep, writeJson);
}

bool
writeCsvFile(const std::string &path, const SweepResult &sweep)
{
    return writeFile(path, sweep, writeCsv);
}

} // namespace logseek::sweep
