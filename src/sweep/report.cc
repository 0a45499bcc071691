#include "report.h"

#include <fstream>
#include <iostream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>

#include "telemetry/export.h"

namespace logseek::sweep
{

using telemetry::jsonEscape;

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

/**
 * Call f(name, text) for each deterministic column of a row, in
 * order: every numeric SimResult member (the row key already names
 * the workload and config), then the derived writeAmplification.
 */
template <typename F>
void
forEachColumn(const stl::SimResult &result, F &&f)
{
    stl::forEachField(result, [&](const char *name,
                                  const auto &value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_floating_point_v<T>)
            f(name, formatExact(value));
        else if constexpr (std::is_integral_v<T>)
            f(name, std::to_string(value));
    });
    f("writeAmplification", formatExact(result.writeAmplification()));
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
            forEachColumn(row.result, [&](const char *name,
                                          const std::string &value) {
                out << ", \"" << name << "\": " << value;
            });
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
    // Column names come from an empty result: the column list is
    // static.
    forEachColumn(stl::SimResult{},
                  [&](const char *name, const std::string &) {
                      out << ',' << name;
                  });
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
        // A failed row leaves every result column empty.
        forEachColumn(row.result,
                      [&](const char *, const std::string &value) {
                          out << ',';
                          if (row.status.ok())
                              out << value;
                      });
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
