/**
 * @file
 * Failure-scenario sweep over the zoned-device realism layer.
 *
 * The paper's model assumes perfect media; real SMR drives serve
 * reads through retries, grow defects that take zones READ_ONLY or
 * OFFLINE, and occasionally disagree with the host about a write
 * pointer. This harness replays the standard workload profiles
 * through translation layers mounted on a ZonedDevice and sweeps a
 * fault-rate × fault-profile grid, reporting how much recovery work
 * (retries, degraded reads, zone resets, WP violations) each
 * configuration absorbs — every cell reported OK or FAILED, never
 * crashed.
 *
 * The base fault rate comes from --fault-rate (default 0.002), the
 * defect map seed from --bad-sector-seed, and the open-zone limit
 * from --max-open-zones; the grid explores 1x and 4x the base rate.
 *
 * Usage: device_fault_sweep [scale] [seed] [--jobs N]
 *        [--fault-rate R] [--bad-sector-seed N]
 *        [--max-open-zones N] [--error-log-cap N]
 *        [--json[=path]] [--csv[=path]]
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "disk/zoned_device.h"
#include "stl/simulator.h"
#include "sweep/cli.h"
#include "sweep/sweep_runner.h"
#include "trace/stats.h"
#include "util/logging.h"
#include "workloads/profiles.h"

namespace
{

using namespace logseek;

/** One fault profile of the grid. */
struct FaultProfile
{
    std::string name;
    bool transient = false;
    bool grown = false;
    bool divergence = false;
};

/** Finite-log capacity sized from the trace's written volume. */
stl::FiniteLogConfig
sizedLog(const trace::Trace &trace)
{
    const trace::TraceStats stats = trace::computeStats(trace);
    stl::FiniteLogConfig config;
    config.capacityBytes = std::max<std::uint64_t>(
        16 * kMiB,
        static_cast<std::uint64_t>(
            2.0 * static_cast<double>(stats.writtenBytes)));
    config.segmentBytes = std::clamp<std::uint64_t>(
        config.capacityBytes / 128, 256 * kKiB, 4 * kMiB);
    config.cleanReserveSegments = 4;
    config.cleanTargetSegments = 12;
    return config;
}

disk::ZonedDeviceOptions
deviceOptions(const FaultProfile &profile, double rate,
              std::uint64_t seed, std::uint32_t max_open_zones,
              std::size_t error_log_cap)
{
    disk::ZonedDeviceOptions options;
    options.maxOpenZones = max_open_zones;
    if (error_log_cap > 0)
        options.errorLogCap = error_log_cap;
    options.faults.seed = seed;
    if (profile.transient)
        options.faults.transientRate = rate;
    if (profile.grown) {
        // Grown defects are an order of magnitude rarer than
        // transient ones, as on real drives.
        options.faults.grownRate = rate / 10.0;
        options.faults.offlineShare = 0.25;
    }
    if (profile.divergence)
        options.faults.wpDivergenceRate = rate;
    return options;
}

sweep::ConfigSpec
deviceConfig(const std::string &label,
             stl::TranslationKind translation,
             const FaultProfile &profile, double rate,
             std::uint64_t seed, std::uint32_t max_open_zones,
             std::size_t error_log_cap)
{
    return sweep::ConfigSpec::deferred(
        label, [translation, profile, rate, seed, max_open_zones,
                error_log_cap](const trace::Trace &trace) {
            stl::SimConfig config;
            config.translation = translation;
            if (translation ==
                stl::TranslationKind::FiniteLogStructured)
                config.finiteLog = sizedLog(trace);
            config.zonedDevice =
                deviceOptions(profile, rate, seed,
                              max_open_zones, error_log_cap);
            return config;
        });
}

} // namespace

int
main(int argc, char **argv)
{
    auto cli = sweep::parseBenchCli(
        argc, argv, sweep::benchUsage("device_fault_sweep"),
        0.005);
    if (!cli)
        return 2;

    const double base_rate =
        cli->faultRate > 0.0 ? cli->faultRate : 0.002;

    const std::vector<std::string> names{"w91", "hm_1", "w33"};
    const std::vector<FaultProfile> profiles{
        {"clean", false, false, false},
        {"transient", true, false, false},
        {"t+grown", true, true, false},
        {"t+g+wpdiv", true, true, true},
    };
    const std::vector<std::pair<std::string, double>> rates{
        {"1x", base_rate}, {"4x", base_rate * 4.0}};
    const std::vector<
        std::pair<std::string, stl::TranslationKind>>
        translations{
            {"FiniteLS", stl::TranslationKind::FiniteLogStructured},
            {"LS", stl::TranslationKind::LogStructured}};

    std::vector<sweep::WorkloadSpec> specs;
    for (const auto &name : names)
        specs.push_back(
            sweep::WorkloadSpec::profile(name, cli->profile));

    // Grid: per translation, the clean profile once plus every
    // faulty profile at each rate multiple.
    std::vector<sweep::ConfigSpec> configs;
    for (const auto &[tname, translation] : translations) {
        configs.push_back(deviceConfig(
            tname + " clean", translation, profiles[0], 0.0,
            cli->badSectorSeed, cli->maxOpenZones,
            cli->errorLogCap));
        for (std::size_t p = 1; p < profiles.size(); ++p)
            for (const auto &[rname, rate] : rates)
                configs.push_back(deviceConfig(
                    tname + " " + profiles[p].name + " " + rname,
                    translation, profiles[p], rate,
                    cli->badSectorSeed, cli->maxOpenZones,
                    cli->errorLogCap));
    }
    const std::size_t config_count = configs.size();

    sweep::SweepOptions options = cli->sweepOptions();
    sweep::SweepRunner runner(std::move(specs),
                              std::move(configs),
                              std::move(options));
    const sweep::SweepResult sweep = runner.run();

    std::cout << "Zoned-device fault sweep (base rate "
              << analysis::formatDouble(base_rate, 4)
              << ", defect-map seed " << cli->badSectorSeed
              << ", open-zone limit " << cli->maxOpenZones
              << ")\n\n";

    analysis::TextTable table({"workload", "config", "status",
                               "retries", "recovered", "lost",
                               "degraded rds", "resets",
                               "wp viol", "RO/off zones"});
    for (std::size_t w = 0; w < names.size(); ++w) {
        for (std::size_t c = 0; c < config_count; ++c) {
            const sweep::RunRow &row = sweep.row(w, c);
            std::vector<std::string> cells{
                names[w], row.key.configLabel,
                row.status.ok() ? "OK" : "FAILED"};
            if (row.status.ok()) {
                const stl::SimResult &r = row.result;
                cells.push_back(
                    std::to_string(r.deviceReadRetries));
                cells.push_back(
                    std::to_string(r.deviceRecoveredSectors));
                cells.push_back(std::to_string(
                    r.deviceFailedReadSectors +
                    r.deviceFailedWriteSectors));
                cells.push_back(
                    std::to_string(r.deviceDegradedReads));
                cells.push_back(
                    std::to_string(r.deviceZoneResets));
                cells.push_back(
                    std::to_string(r.deviceWpViolations));
                cells.push_back(
                    std::to_string(r.deviceReadOnlyZones) + "/" +
                    std::to_string(r.deviceOfflineZones));
            } else {
                cells.insert(cells.end(),
                             {"-", "-", "-", "-", "-", "-", "-"});
            }
            table.addRow(std::move(cells));
        }
    }
    table.print(std::cout);

    const std::uint64_t failed = sweep.telemetry.failedRuns;
    std::cout << "\nCells: OK=" << sweep.telemetry.runs - failed
              << " FAILED=" << failed;
    std::cout
        << "\n\nExpected shape: transient faults cost retries but "
           "lose nothing; adding grown defects loses sectors and "
           "flips zones READ_ONLY/OFFLINE; write-pointer "
           "divergence adds recovered WP violations. The clean "
           "profile must match a device-less run exactly.\n";
    cli->emitReports(sweep);
    return 0;
}
