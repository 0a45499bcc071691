/**
 * @file
 * Host fingerprint, peak RSS, span export and number formatting.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.h"

namespace perfbench
{

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

} // namespace

std::map<std::string, std::string>
hostInfo()
{
    return {
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"cpu_model", cpuModel()},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
    };
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool
writeSpans(const std::string &path, const SpanLog &spans,
           const std::map<std::string, std::string> &host)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\": [\n";
    bool first = true;
    for (const Span &span : spans.spans()) {
        if (!first)
            out << ",\n";
        first = false;
        const double dur = std::max(0.0, span.endSec - span.startSec);
        out << "{\"name\": \"" << jsonEscape(span.name)
            << "\", \"cat\": \"" << jsonEscape(span.category)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.tid
            << ", \"ts\": " << formatDouble(span.startSec * 1e6)
            << ", \"dur\": " << formatDouble(dur * 1e6)
            << ", \"args\": {\"id\": " << span.id
            << ", \"parent\": " << span.parent << "}}";
    }
    out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {";
    first = true;
    for (const auto &[key, value] : host) {
        if (!first)
            out << ", ";
        first = false;
        out << "\"" << key << "\": \"" << jsonEscape(value) << "\"";
    }
    out << "}}\n";
    return static_cast<bool>(out);
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += '"';
        out += jsonEscape(metrics[i].name);
        out += "\": {\"value\": ";
        out += formatDouble(metrics[i].value);
        out += ", \"unit\": \"";
        out += jsonEscape(metrics[i].unit);
        out += "\"}";
    }
    return out + "}";
}

bool
writeReport(const std::string &path, const std::string &workload,
            std::uint64_t seed, int trace,
            const std::map<std::string, std::string> &host,
            double error_rate, const std::vector<Metric> &metrics)
{
    std::ofstream out(path);
    out << "{\"workload\": \"" << jsonEscape(workload)
        << "\", \"seed\": " << seed << ", \"scale\": " << kScale
        << ", \"trace\": " << trace << ", \"host\": {";
    bool first = true;
    for (const auto &[key, value] : host) {
        out << (first ? "" : ", ") << "\"" << key << "\": \""
            << jsonEscape(value) << "\"";
        first = false;
    }
    out << "}, \"error_rate\": " << formatDouble(error_rate)
        << ", \"metrics\": " << jsonMetrics(metrics) << "}\n";
    return static_cast<bool>(out);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : (values[mid - 1] + values[mid]) / 2.0;
}

std::string
formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace perfbench
