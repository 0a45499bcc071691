/**
 * @file
 * Regenerates paper Figure 8: the fraction of mis-ordered writes —
 * writes whose LBA sequentially follows a write arriving within the
 * next 256 KB of written data — for the figure's workload set. The
 * paper's observation: up to one in 20 (src2_2) / one in 25 (w106)
 * writes are mis-ordered.
 *
 * Usage: fig8_misordered [scale] [seed] [--jobs N]
 */

#include <iostream>
#include <vector>

#include "analysis/misordered.h"
#include "analysis/report.h"
#include "sweep/cli.h"
#include "sweep/sweep_runner.h"
#include "workloads/profiles.h"

int
main(int argc, char **argv)
{
    using namespace logseek;

    const auto cli = sweep::parseBenchCli(
        argc, argv, sweep::benchUsage("fig8_misordered"));
    if (!cli)
        return 2;

    const std::vector<std::string> names{"usr_0", "usr_1", "src2_2",
                                         "hm_1",  "web_0", "w84",
                                         "w95",   "w91",   "w106",
                                         "w55",   "w33",   "w20"};
    std::vector<sweep::WorkloadSpec> specs;
    for (const auto &name : names)
        specs.push_back(sweep::WorkloadSpec::profile(name, cli->profile));

    std::vector<analysis::MisorderedWriteStats> stats(names.size());
    sweep::SweepOptions options = cli->sweepOptions();
    options.onTrace = [&stats](std::size_t w, const trace::Trace &trace) {
        stats[w] = analysis::countMisorderedWrites(trace);
    };
    sweep::SweepRunner runner(std::move(specs), {},
                              std::move(options));
    runner.run();

    std::cout << "Figure 8: mis-ordered writes within 256 KB\n\n";
    analysis::TextTable table(
        {"workload", "writes", "mis-ordered", "fraction"});
    for (std::size_t w = 0; w < names.size(); ++w) {
        table.addRow({names[w], std::to_string(stats[w].writes),
                      std::to_string(stats[w].misordered),
                      analysis::formatDouble(
                          stats[w].fraction() * 100.0, 2) +
                          "%"});
    }
    table.print(std::cout);
    std::cout << "\nPaper reference: src2_2 about 1-in-20, w106 "
                 "about 1-in-25; scan/update workloads much lower.\n";
    return 0;
}
