/**
 * @file
 * Example: export a named synthetic workload as an on-disk trace —
 * MSR-format CSV (interoperable with existing block-trace tooling)
 * or the columnar LSKC binary format, chosen by the output path's
 * extension. Lets external simulators and the paper's original
 * scripts consume logseek's calibrated workloads.
 *
 * Usage: make_trace <workload> <out.csv|out.lskc> [scale] [seed]
 *        make_trace --list
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/report.h"
#include "trace/convert.h"
#include "trace/stats.h"
#include "util/logging.h"
#include "workloads/profiles.h"

using namespace logseek;

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "--list") {
        analysis::TextTable table({"workload", "suite", "behavior"});
        for (const auto &info : workloads::workloadTable())
            table.addRow({info.name, info.suite, info.behavior});
        table.print(std::cout);
        return 0;
    }
    if (argc < 3) {
        std::cerr << "usage: make_trace <workload> "
                     "<out.csv|out.lskc> [scale] [seed]\n"
                     "       make_trace --list\n";
        return 1;
    }

    const std::string name = argv[1];
    const std::string path = argv[2];
    workloads::ProfileOptions options;
    if (argc > 3)
        options.scale = std::atof(argv[3]);
    if (argc > 4)
        options.seed =
            static_cast<std::uint64_t>(std::atoll(argv[4]));

    try {
        const trace::Trace trace =
            workloads::makeWorkload(name, options);
        trace::tryWriteTraceFile(path, trace).orFatal();
        const trace::TraceStats stats = trace::computeStats(trace);
        std::cout << "wrote " << trace.size() << " requests ("
                  << stats.readCount << " reads, "
                  << stats.writeCount << " writes, "
                  << analysis::formatBytes(stats.readBytes +
                                           stats.writtenBytes)
                  << " transferred) to " << path << "\n";
    } catch (const FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
