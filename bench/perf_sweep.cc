/**
 * @file
 * Smoke benchmark for the parallel sweep runner: replays the
 * Figure 11 sweep (all 21 workloads × 6 configs) serially and with
 * a worker pool, checks the two produce byte-identical simulation
 * results, and writes the throughput comparison to a JSON file
 * (default BENCH_sweep.json) for tracking.
 *
 * A third leg replays the serial sweep with telemetry armed; it
 * must still be byte-identical (telemetry never touches SimResult),
 * its wall time over the plain serial leg is the telemetry overhead
 * ratio, and its metrics snapshot is embedded under "metrics". Both
 * ratios compare legs of one run on one machine.
 *
 * On a single-hardware-thread box the parallel (multi-jobs) leg
 * cannot demonstrate a speedup; the report then carries
 * "parallelLegValid": false and a warning is printed, so trackers
 * do not read the ~1x speedup as a regression.
 *
 * Usage: perf_sweep [scale] [seed] [--jobs N] [--json=path]
 *
 * --jobs selects the parallel worker count (0 or default = hardware
 * concurrency); the serial leg always runs with one worker.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stl/simulator.h"
#include "sweep/cli.h"
#include "sweep/report.h"
#include "sweep/sweep_runner.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "workloads/profiles.h"

namespace
{

using namespace logseek;

std::vector<sweep::ConfigSpec>
fig11Configs()
{
    auto ls = [](bool defrag, bool prefetch, bool cache) {
        stl::SimConfig config;
        config.translation = stl::TranslationKind::LogStructured;
        if (defrag)
            config.defrag = stl::DefragConfig{};
        if (prefetch)
            config.prefetch = stl::PrefetchConfig{};
        if (cache)
            config.cache = stl::SelectiveCacheConfig{64 * kMiB};
        return config;
    };
    stl::SimConfig baseline;
    baseline.translation = stl::TranslationKind::Conventional;
    return {
        sweep::ConfigSpec::fixed("NoLS", baseline),
        sweep::ConfigSpec::fixed("LS", ls(false, false, false)),
        sweep::ConfigSpec::fixed("LS+defrag", ls(true, false, false)),
        sweep::ConfigSpec::fixed("LS+prefetch",
                                 ls(false, true, false)),
        sweep::ConfigSpec::fixed("LS+cache(64MB)",
                                 ls(false, false, true)),
        sweep::ConfigSpec::fixed("LS+all", ls(true, true, true)),
    };
}

std::vector<sweep::WorkloadSpec>
allWorkloads(const workloads::ProfileOptions &profile)
{
    std::vector<sweep::WorkloadSpec> specs;
    for (const auto &name : workloads::msrWorkloadNames())
        specs.push_back(sweep::WorkloadSpec::profile(name, profile));
    for (const auto &name : workloads::cloudPhysicsWorkloadNames())
        specs.push_back(sweep::WorkloadSpec::profile(name, profile));
    return specs;
}

sweep::SweepResult
runOnce(const workloads::ProfileOptions &profile, int jobs)
{
    sweep::SweepOptions options;
    options.jobs = jobs;
    sweep::SweepRunner runner(allWorkloads(profile), fig11Configs(),
                              std::move(options));
    return runner.run();
}

std::string
deterministicForm(const sweep::SweepResult &sweep)
{
    std::ostringstream out;
    sweep::writeJson(out, sweep, /*with_telemetry=*/false);
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    auto cli = sweep::parseBenchCli(
        argc, argv, sweep::benchUsage("perf_sweep"));
    if (!cli)
        return 2;
    // Default the parallel leg to hardware concurrency (an
    // explicit --jobs overrides) and the report to BENCH_sweep.json
    // unless told otherwise.
    const int hardware =
        static_cast<int>(std::thread::hardware_concurrency());
    const int parallel_jobs =
        cli->jobs != 1 ? cli->resolvedJobs()
                       : (hardware > 1 ? hardware : 1);
    const std::string path =
        cli->jsonPath && *cli->jsonPath != "-" ? *cli->jsonPath
                                               : "BENCH_sweep.json";

    std::cout << "perf_sweep: Figure 11 sweep at scale "
              << cli->profile.scale << ", serial vs " << parallel_jobs
              << " jobs\n";

    const bool parallel_leg_valid = hardware > 1;
    if (!parallel_leg_valid)
        std::cout << "perf_sweep: WARNING: hardware concurrency is "
                     "1; the parallel leg cannot speed up and "
                     "\"parallelLegValid\" is false in the report\n";

    // Warm-up: one untimed serial sweep so the first timed leg
    // does not absorb the process's cold-start costs (page faults,
    // allocator arena growth) and the leg-vs-leg ratios compare
    // steady states.
    (void)runOnce(cli->profile, 1);

    const sweep::SweepResult serial = runOnce(cli->profile, 1);
    const sweep::SweepResult parallel =
        runOnce(cli->profile, parallel_jobs);

    // Telemetry leg: same serial sweep with collection armed. A
    // fresh-zeroed registry isolates this leg's counts, and the
    // deterministic form must not move — telemetry observes the
    // replay, it never feeds back into it.
    telemetry::Registry::global().resetValues();
    telemetry::setEnabled(true);
    const sweep::SweepResult instrumented = runOnce(cli->profile, 1);
    telemetry::setEnabled(false);
    const telemetry::MetricsSnapshot metrics =
        telemetry::Registry::global().snapshot();

    const bool deterministic =
        deterministicForm(serial) == deterministicForm(parallel) &&
        deterministicForm(serial) == deterministicForm(instrumented);
    const double speedup =
        parallel.telemetry.wallSec > 0.0
            ? serial.telemetry.wallSec / parallel.telemetry.wallSec
            : 0.0;
    const double overhead =
        serial.telemetry.wallSec > 0.0
            ? instrumented.telemetry.wallSec /
                  serial.telemetry.wallSec
            : 0.0;

    std::ostringstream json;
    json.precision(6);
    json << "{\n"
         << "  \"benchmark\": \"perf_sweep\",\n"
         << "  \"scale\": " << cli->profile.scale << ",\n"
         << "  \"workloads\": " << serial.workloads.size() << ",\n"
         << "  \"configs\": " << serial.configs.size() << ",\n"
         << "  \"runs\": " << serial.telemetry.runs << ",\n"
         << "  \"opsPerRun\": " << serial.telemetry.ops << ",\n"
         << "  \"hardwareConcurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"parallelLegValid\": "
         << (parallel_leg_valid ? "true" : "false") << ",\n"
         << "  \"deterministic\": "
         << (deterministic ? "true" : "false") << ",\n"
         << "  \"serial\": {\"jobs\": 1, \"wallSec\": "
         << serial.telemetry.wallSec << ", \"opsPerSec\": "
         << serial.telemetry.opsPerSec() << "},\n"
         << "  \"parallel\": {\"jobs\": " << parallel.telemetry.jobs
         << ", \"wallSec\": " << parallel.telemetry.wallSec
         << ", \"opsPerSec\": " << parallel.telemetry.opsPerSec()
         << "},\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"telemetry\": {\"jobs\": 1, \"wallSec\": "
         << instrumented.telemetry.wallSec << ", \"opsPerSec\": "
         << instrumented.telemetry.opsPerSec()
         << ", \"overheadRatio\": " << overhead << "},\n"
         << "  \"metrics\": ";
    std::ostringstream snapshot_json;
    telemetry::writeMetricsJson(metrics, snapshot_json);
    json << snapshot_json.str() << "}\n";

    std::ofstream file(path);
    if (!file) {
        std::cerr << "perf_sweep: cannot write " << path << "\n";
        return 1;
    }
    file << json.str();

    std::cout << json.str();
    std::cout << (deterministic
                      ? "serial, parallel and telemetry sweeps "
                        "byte-identical\n"
                      : "MISMATCH between replay legs!\n");
    return deterministic ? 0 : 1;
}
