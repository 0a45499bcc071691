/**
 * @file
 * Trace file converter: rewrite a trace between MSR CSV and the
 * columnar LSKC format.
 *
 *   trace_convert <input> --convert-out <output>
 *                 [--trace-format F] [--out-format F]
 *
 * The input format defaults to auto-detection (magic sniff);
 * --trace-format declares it instead. The output format follows
 * the output path's extension unless --out-format overrides it.
 * Conversion is deterministic — converting the same input twice
 * produces byte-identical output — which is what lets the ingest
 * smoke test byte-diff a reconverted file (scripts/tier1.sh).
 */

#include <iostream>
#include <string>

#include "trace/convert.h"
#include "trace/format.h"

namespace
{

using namespace logseek;

constexpr const char *kUsage =
    "usage: trace_convert <input> --convert-out <output>\n"
    "                     [--trace-format auto|csv|lskc]\n"
    "                     [--out-format auto|csv|lskc]\n";

} // namespace

int
main(int argc, char **argv)
{
    std::string in_path;
    std::string out_path;
    trace::TraceFormat in_format = trace::TraceFormat::Auto;
    trace::TraceFormat out_format = trace::TraceFormat::Auto;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto flagValue = [&](const char *flag,
                             std::string &out) -> bool {
            const std::string name(flag);
            if (arg == name) {
                if (i + 1 >= argc) {
                    std::cerr << name << " requires a value\n"
                              << kUsage;
                    std::exit(2);
                }
                out = argv[++i];
                return true;
            }
            if (arg.rfind(name + "=", 0) == 0) {
                out = arg.substr(name.size() + 1);
                return true;
            }
            return false;
        };

        std::string value;
        if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        } else if (flagValue("--convert-out", value)) {
            out_path = value;
        } else if (flagValue("--trace-format", value)) {
            StatusOr<trace::TraceFormat> format =
                trace::parseTraceFormat(value);
            if (!format.ok()) {
                std::cerr << format.status().message() << "\n"
                          << kUsage;
                return 2;
            }
            in_format = format.value();
        } else if (flagValue("--out-format", value)) {
            StatusOr<trace::TraceFormat> format =
                trace::parseTraceFormat(value);
            if (!format.ok()) {
                std::cerr << format.status().message() << "\n"
                          << kUsage;
                return 2;
            }
            out_format = format.value();
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "unknown option: " << arg << "\n"
                      << kUsage;
            return 2;
        } else if (in_path.empty()) {
            in_path = arg;
        } else {
            std::cerr << "unexpected argument: " << arg << "\n"
                      << kUsage;
            return 2;
        }
    }

    if (in_path.empty() || out_path.empty()) {
        std::cerr << kUsage;
        return 2;
    }

    StatusOr<trace::ConvertSummary> summary =
        trace::tryConvertTraceFile(in_path, out_path, in_format,
                                   out_format);
    if (!summary.ok()) {
        std::cerr << "trace_convert: "
                  << summary.status().message() << "\n";
        return 1;
    }
    const trace::ConvertSummary &done = summary.value();
    std::cout << in_path << " ("
              << trace::toString(done.inFormat) << ", "
              << done.inBytes << " bytes) -> " << out_path << " ("
              << trace::toString(done.outFormat) << ", "
              << done.outBytes << " bytes), " << done.records
              << " records\n";
    return 0;
}
