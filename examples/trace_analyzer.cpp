/**
 * @file
 * Example: a command-line analyzer for real block traces in the MSR
 * Cambridge CSV format — the pipeline the paper runs on its traces,
 * usable unchanged on the public MSR files
 * ("timestamp,host,disk,Read|Write,offset,bytes,latency") — or in
 * the columnar LSKC format, recognized by its magic.
 *
 * Prints Table-I style characteristics, mis-ordered write fraction
 * (Fig. 8), NoLS/LS seek counts (Fig. 2), fragmentation statistics
 * (Fig. 5) and the SAF of every mechanism (Fig. 11) for the trace.
 *
 * Usage:
 *   trace_analyzer <trace.csv|trace.lskc> [disk_number]
 *   trace_analyzer --demo              analyze a built-in workload
 *   trace_analyzer --convert <in> <out.csv|out.lskc>
 *                                      convert a trace to the format
 *                                      the output extension names
 *
 * CSV input is parsed in skip mode: malformed lines are skipped
 * with a warning, and a file with no valid line is an error.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/misordered.h"
#include "analysis/observers.h"
#include "analysis/report.h"
#include "stl/simulator.h"
#include "trace/convert.h"
#include "trace/format.h"
#include "trace/msr_csv.h"
#include "trace/stats.h"
#include "util/logging.h"
#include "workloads/profiles.h"

namespace
{

using namespace logseek;

void
analyze(const trace::Trace &trace)
{
    const trace::TraceStats stats = trace::computeStats(trace);
    std::cout << "Trace: " << trace.name() << "\n";
    std::cout << "  requests:     " << trace.size() << " ("
              << stats.readCount << " reads, " << stats.writeCount
              << " writes)\n";
    std::cout << "  volume:       "
              << analysis::formatBytes(stats.readBytes) << " read, "
              << analysis::formatBytes(stats.writtenBytes)
              << " written\n";
    std::cout << "  mean sizes:   "
              << analysis::formatDouble(stats.meanReadSizeKiB(), 1)
              << " KiB read, "
              << analysis::formatDouble(stats.meanWriteSizeKiB(), 1)
              << " KiB write\n";
    std::cout << "  address span: "
              << analysis::formatBytes(
                     sectorsToBytes(stats.addressSpaceEnd))
              << "\n";

    const analysis::MisorderedWriteStats misordered =
        analysis::countMisorderedWrites(trace);
    std::cout << "  mis-ordered writes (256 KB window): "
              << analysis::formatDouble(misordered.fraction() * 100,
                                        2)
              << "%\n\n";

    // Baseline and plain LS with fragmentation observers.
    stl::SimConfig baseline;
    baseline.translation = stl::TranslationKind::Conventional;
    const stl::SimResult nols = stl::Simulator(baseline).run(trace);

    stl::SimConfig ls_config;
    ls_config.translation = stl::TranslationKind::LogStructured;
    analysis::FragmentedReadCdf frag;
    stl::Simulator ls_sim(ls_config);
    ls_sim.addObserver(&frag);
    const stl::SimResult ls = ls_sim.run(trace);

    std::cout << "Seek counts (paper Fig. 2 view):\n";
    analysis::TextTable seeks({"config", "read seeks", "write seeks",
                               "total"});
    seeks.addRow({"NoLS", std::to_string(nols.readSeeks),
                  std::to_string(nols.writeSeeks),
                  std::to_string(nols.totalSeeks())});
    seeks.addRow({"LS", std::to_string(ls.readSeeks),
                  std::to_string(ls.writeSeeks),
                  std::to_string(ls.totalSeeks())});
    seeks.print(std::cout);

    std::cout << "\nFragmentation under LS (paper Fig. 5 view):\n";
    std::cout << "  fragmented reads: " << frag.fragmentedReads()
              << " of " << frag.totalReads() << "\n";
    if (frag.fragmentedReads() > 0) {
        std::cout << "  fragments per fragmented read: p50="
                  << frag.fragmentsPerRead().percentile(0.5)
                  << " p90="
                  << frag.fragmentsPerRead().percentile(0.9)
                  << " max=" << frag.fragmentsPerRead().max()
                  << "\n";
    }
    std::cout << "  final static fragments: " << ls.staticFragments
              << "\n\n";

    std::cout << "Seek amplification (paper Fig. 11 view):\n";
    analysis::TextTable saf({"config", "SAF"});
    saf.addRow({"LS", analysis::formatRatio(
                          stl::seekAmplification(nols, ls))});
    auto add = [&](const char *label, bool defrag, bool prefetch,
                   bool cache) {
        stl::SimConfig config = ls_config;
        if (defrag)
            config.defrag = stl::DefragConfig{};
        if (prefetch)
            config.prefetch = stl::PrefetchConfig{};
        if (cache)
            config.cache = stl::SelectiveCacheConfig{64 * kMiB};
        saf.addRow({label,
                    analysis::formatRatio(stl::seekAmplification(
                        nols, stl::Simulator(config).run(trace)))});
    };
    add("LS+defrag", true, false, false);
    add("LS+prefetch", false, true, false);
    add("LS+cache(64MB)", false, false, true);
    add("LS+all", true, true, true);
    saf.print(std::cout);
}

/** The trace in `path`: LSKC by its magic, anything else as MSR CSV
 *  in skip mode, filtered to `disk` unless it is negative. */
trace::Trace
loadTrace(const std::string &path, int disk)
{
    const StatusOr<trace::TraceFormat> format =
        trace::resolveTraceFormat(path, trace::TraceFormat::Auto);
    format.status().orFatal();
    if (format.value() == trace::TraceFormat::Csv) {
        trace::MsrCsvOptions options;
        options.skipMalformed = true;
        options.diskFilter = disk;
        return trace::parseMsrCsvFile(path, path, options);
    }
    StatusOr<trace::Trace> loaded =
        trace::tryLoadTraceFile(path, format.value());
    loaded.status().orFatal();
    return std::move(loaded).value();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: trace_analyzer <trace.csv|.lskc> "
                     "[disk_number] | --demo | --convert <in> "
                     "<out>\n";
        return 1;
    }

    const std::string arg = argv[1];
    try {
        if (arg == "--demo") {
            analyze(workloads::makeWorkload("w95"));
            return 0;
        }
        if (arg == "--convert") {
            if (argc < 4) {
                std::cerr << "usage: trace_analyzer --convert "
                             "<in> <out.csv|out.lskc>\n";
                return 1;
            }
            const StatusOr<trace::ConvertSummary> converted =
                trace::tryConvertTraceFile(argv[2], argv[3]);
            converted.status().orFatal();
            std::cout << "wrote " << converted.value().records
                      << " records to " << argv[3] << "\n";
            return 0;
        }
        analyze(loadTrace(arg, argc > 2 ? std::atoi(argv[2]) : -1));
    } catch (const logseek::FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
