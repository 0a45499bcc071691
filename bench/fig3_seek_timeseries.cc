/**
 * @file
 * Regenerates paper Figure 3: log-structured translation overhead
 * over time — the per-bin difference (LS minus NoLS) in long
 * (>500 KB) seeks, plotted against operation number, for usr_1,
 * web_0, w91 and w55. The paper's observation: strong temporal
 * (diurnal) swings — overhead concentrates in scan bursts.
 *
 * Usage: fig3_seek_timeseries [scale] [seed] [--jobs N]
 *        [--json[=path]] [--csv[=path]] [--paranoid]
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/observers.h"
#include "analysis/report.h"
#include "stl/simulator.h"
#include "sweep/cli.h"
#include "sweep/sweep_runner.h"
#include "workloads/profiles.h"

namespace
{

using namespace logseek;

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = sweep::parseBenchCli(
        argc, argv, sweep::benchUsage("fig3_seek_timeseries"));
    if (!cli)
        return 2;

    const std::vector<std::string> names{"usr_1", "web_0", "w91",
                                         "w55"};
    std::vector<sweep::WorkloadSpec> specs;
    for (const auto &name : names)
        specs.push_back(sweep::WorkloadSpec::profile(name, cli->profile));

    stl::SimConfig nols_config;
    nols_config.translation = stl::TranslationKind::Conventional;
    stl::SimConfig ls_config;
    ls_config.translation = stl::TranslationKind::LogStructured;

    // Bin width depends on each trace's length; the onTrace hook
    // records it before any of that workload's runs execute.
    std::vector<std::uint64_t> bins(names.size(), 1);
    sweep::SweepOptions options = cli->sweepOptions();
    options.observerFactory =
        cli->observerFactory([&bins](const sweep::RunKey &key) {
            std::vector<std::unique_ptr<stl::SimObserver>> obs;
            obs.push_back(std::make_unique<analysis::SeekCounter>(
                bins[key.workloadIndex]));
            return obs;
        });
    options.onTrace = [&bins](std::size_t w, const trace::Trace &trace) {
        bins[w] = std::max<std::uint64_t>(1, trace.size() / 60);
    };
    sweep::SweepRunner runner(
        std::move(specs),
        {sweep::ConfigSpec::fixed("NoLS", nols_config),
         sweep::ConfigSpec::fixed("LS", ls_config)},
        std::move(options));
    const sweep::SweepResult sweep = runner.run();

    for (std::size_t w = 0; w < names.size(); ++w) {
        const auto *nols_counter =
            sweep::findObserver<analysis::SeekCounter>(sweep.row(w, 0));
        const auto *ls_counter =
            sweep::findObserver<analysis::SeekCounter>(sweep.row(w, 1));
        const BinnedSeries delta =
            difference(ls_counter->longSeekSeries(),
                       nols_counter->longSeekSeries());

        std::cout << "# Figure 3 series: " << names[w]
                  << " (long-seek count, LS - NoLS, per " << bins[w]
                  << "-op bin)\n";
        std::cout << "# op(x1000)\tdelta_long_seeks\n";
        for (std::size_t i = 0; i < delta.binCount(); ++i) {
            std::cout
                << analysis::formatDouble(
                       static_cast<double>(delta.binLowerEdge(i)) /
                           1000.0,
                       1)
                << "\t" << delta.binValue(i) << "\n";
        }
        std::cout << "# total long-seek delta: " << delta.total()
                  << "\n\n";
    }
    cli->emitReports(sweep);
    return 0;
}
