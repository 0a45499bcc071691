/**
 * @file
 * Regenerates paper Table I: workload characteristics (request
 * counts, transferred volumes, mean write size) for every named
 * profile, next to the paper's reference values. Generated counts
 * are scaled by the profile scale factor (default 1:50), so the
 * columns to compare are the ratios, not the absolutes.
 *
 * Usage: table1_workloads [scale] [seed] [--jobs N]
 */

#include <iostream>
#include <vector>

#include "analysis/report.h"
#include "sweep/cli.h"
#include "sweep/sweep_runner.h"
#include "trace/stats.h"
#include "workloads/profiles.h"

int
main(int argc, char **argv)
{
    using namespace logseek;

    const auto cli = sweep::parseBenchCli(
        argc, argv, sweep::benchUsage("table1_workloads"));
    if (!cli)
        return 2;

    std::cout << "Table I: workload characteristics (generated at "
              << "scale " << cli->profile.scale
              << " of the paper's request counts)\n\n";

    const auto infos = workloads::workloadTable();
    std::vector<sweep::WorkloadSpec> specs;
    for (const auto &info : infos)
        specs.push_back(
            sweep::WorkloadSpec::profile(info.name, cli->profile));

    // Trace-only sweep: no configs, just a per-workload stats hook.
    std::vector<trace::TraceStats> stats(infos.size());
    sweep::SweepOptions options = cli->sweepOptions();
    options.onTrace = [&stats](std::size_t w, const trace::Trace &trace) {
        stats[w] = trace::computeStats(trace);
    };
    sweep::SweepRunner runner(std::move(specs), {},
                              std::move(options));
    runner.run();

    analysis::TextTable table(
        {"workload", "suite", "reads", "writes", "read GiB",
         "written GiB", "mean write KiB", "paper mean write KiB",
         "OS (guest)"});
    for (std::size_t w = 0; w < infos.size(); ++w) {
        const auto &info = infos[w];
        table.addRow({info.name, info.suite,
                      std::to_string(stats[w].readCount),
                      std::to_string(stats[w].writeCount),
                      analysis::formatDouble(stats[w].readGiB(), 2),
                      analysis::formatDouble(stats[w].writtenGiB(), 2),
                      analysis::formatDouble(
                          stats[w].meanWriteSizeKiB(), 1),
                      analysis::formatDouble(info.tableMeanWriteKiB,
                                             1),
                      info.os});
    }
    table.print(std::cout);

    std::cout << "\nPaper reference counts (unscaled):\n\n";
    analysis::TextTable reference(
        {"workload", "paper reads", "paper writes", "behavior"});
    for (const auto &info : infos) {
        reference.addRow({info.name,
                          std::to_string(info.tableReads),
                          std::to_string(info.tableWrites),
                          info.behavior});
    }
    reference.print(std::cout);
    return 0;
}
