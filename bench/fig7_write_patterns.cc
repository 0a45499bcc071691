/**
 * @file
 * Regenerates paper Figure 7: examples of highly non-sequential LBA
 * write patterns. For hm_1 the paper shows contiguous ranges
 * written in descending/chunked orders; for w106 small-scale
 * randomness. This harness prints a window of (write index, LBA)
 * pairs from each generated trace — the raw series behind the
 * scatter plots.
 *
 * Usage: fig7_write_patterns [scale] [seed] [--jobs N]
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/misordered.h"
#include "analysis/report.h"
#include "sweep/cli.h"
#include "sweep/sweep_runner.h"
#include "workloads/profiles.h"

namespace
{

using namespace logseek;

void
excerptWrites(std::ostream &out, const std::string &name,
              const trace::Trace &trace, std::size_t window)
{
    // Find the densest run of mis-ordered writes to excerpt: scan
    // write ops and pick the first window that contains a
    // descending adjacent pair.
    std::vector<std::pair<std::size_t, Lba>> writes;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].isWrite())
            writes.emplace_back(writes.size(),
                                trace[i].extent.start);
    }

    std::size_t begin = 0;
    for (std::size_t i = 1; i < writes.size(); ++i) {
        if (writes[i].second < writes[i - 1].second &&
            writes[i - 1].second - writes[i].second < 4096) {
            begin = i > window / 4 ? i - window / 4 : 0;
            break;
        }
    }

    out << "# Figure 7: " << name
        << " write-operation LBA series (excerpt)\n";
    out << "# write_op\tlba\n";
    const std::size_t end = std::min(begin + window, writes.size());
    for (std::size_t i = begin; i < end; ++i)
        out << writes[i].first << "\t" << writes[i].second << "\n";

    const auto stats = analysis::countMisorderedWrites(trace);
    out << "# mis-ordered write fraction over whole trace: "
        << analysis::formatDouble(stats.fraction() * 100.0, 2)
        << "%\n\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = sweep::parseBenchCli(
        argc, argv, sweep::benchUsage("fig7_write_patterns"));
    if (!cli)
        return 2;

    const std::vector<std::string> names{"hm_1", "w106"};
    constexpr std::size_t kWindow = 64;

    std::vector<sweep::WorkloadSpec> specs;
    for (const auto &name : names)
        specs.push_back(sweep::WorkloadSpec::profile(name, cli->profile));

    // Trace-only sweep: each workload's excerpt renders into its own
    // buffer so the printed order stays fixed whatever the job count.
    std::vector<std::ostringstream> reports(names.size());
    sweep::SweepOptions options = cli->sweepOptions();
    options.onTrace = [&](std::size_t w, const trace::Trace &trace) {
        excerptWrites(reports[w], names[w], trace, kWindow);
    };
    sweep::SweepRunner runner(std::move(specs), {},
                              std::move(options));
    runner.run();

    for (const auto &report : reports)
        std::cout << report.str();
    return 0;
}
