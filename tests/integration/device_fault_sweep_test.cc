/**
 * @file
 * End-to-end failure-scenario sweep over the zoned-device layer:
 * a 200+-cell (workload × device-fault-config) grid covering
 * transient bad sectors, persistent grown defects (including zones
 * going OFFLINE mid-trace) and write-pointer divergence. The
 * acceptance contract: every cell completes OK — no crashes, no
 * uncaught exceptions — and the grid is byte-identical across job
 * counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "disk/zoned_device.h"
#include "stl/simulator.h"
#include "sweep/report.h"
#include "sweep/sweep_runner.h"
#include "trace/stats.h"
#include "util/random.h"
#include "workloads/profiles.h"

namespace logseek::sweep
{
namespace
{

workloads::ProfileOptions
tinyProfile()
{
    workloads::ProfileOptions options;
    options.scale = 0.002;
    return options;
}

/** One fault shape of the grid. */
struct FaultShape
{
    const char *name;
    double transient;
    double grown;
    double offlineShare;
    double divergence;
};

constexpr FaultShape kShapes[] = {
    {"transient", 0.02, 0.0, 0.0, 0.0},
    {"grown-ro", 0.0, 0.004, 0.0, 0.0},
    {"grown-offline", 0.0, 0.004, 1.0, 0.0},
    {"wp-div", 0.0, 0.0, 0.0, 0.05},
    {"t+g", 0.02, 0.002, 0.25, 0.0},
    {"t+g+div", 0.02, 0.002, 0.25, 0.05},
};

/** The full grid: 6 workloads x (2 translations x 6 shapes x
 *  3 severities) = 216 cells. */
std::vector<WorkloadSpec>
gridWorkloads()
{
    std::vector<WorkloadSpec> specs;
    for (const char *name :
         {"usr_1", "w91", "hm_1", "w33", "src2_2", "web_0"})
        specs.push_back(WorkloadSpec::profile(name, tinyProfile()));
    return specs;
}

/** Finite-log capacity sized so the log never overcommits. */
stl::FiniteLogConfig
sizedLog(const trace::Trace &trace)
{
    const trace::TraceStats stats = trace::computeStats(trace);
    stl::FiniteLogConfig config;
    config.capacityBytes =
        std::max<std::uint64_t>(16 * kMiB, 2 * stats.writtenBytes);
    config.segmentBytes = std::clamp<std::uint64_t>(
        config.capacityBytes / 128, 256 * kKiB, 4 * kMiB);
    config.cleanReserveSegments = 4;
    config.cleanTargetSegments = 12;
    return config;
}

std::vector<ConfigSpec>
gridConfigs()
{
    std::vector<ConfigSpec> configs;
    const std::pair<const char *, stl::TranslationKind>
        translations[] = {
            {"FLS", stl::TranslationKind::FiniteLogStructured},
            {"LS", stl::TranslationKind::LogStructured}};
    for (const auto &[tname, translation] : translations) {
        for (const FaultShape &shape : kShapes) {
            for (int severity = 1; severity <= 3; ++severity) {
                disk::ZonedDeviceOptions device;
                const double x = severity;
                device.faults.transientRate = shape.transient * x;
                device.faults.grownRate = shape.grown * x;
                device.faults.offlineShare = shape.offlineShare;
                device.faults.wpDivergenceRate =
                    shape.divergence * x;
                configs.push_back(ConfigSpec::deferred(
                    std::string(tname) + " " + shape.name + " " +
                        std::to_string(severity) + "x",
                    [translation,
                     device](const trace::Trace &trace) {
                        stl::SimConfig config;
                        config.translation = translation;
                        if (translation ==
                            stl::TranslationKind::
                                FiniteLogStructured)
                            config.finiteLog = sizedLog(trace);
                        config.zonedDevice = device;
                        return config;
                    }));
            }
        }
    }
    return configs;
}

SweepResult
runGrid(SweepOptions options)
{
    SweepRunner runner(gridWorkloads(), gridConfigs(),
                       std::move(options));
    return runner.run();
}

std::string
deterministicJson(const SweepResult &sweep)
{
    std::ostringstream out;
    writeJson(out, sweep, /*with_telemetry=*/false);
    return out.str();
}

TEST(DeviceFaultSweep, EveryCellCompletesClassified)
{
    SweepOptions options;
    options.jobs = 4;
    const SweepResult sweep = runGrid(std::move(options));

    ASSERT_GE(sweep.rows.size(), 200u);
    std::uint64_t degraded_cells = 0;
    std::uint64_t retried_sectors = 0;
    std::uint64_t wp_violations = 0;
    std::uint64_t offline_zones = 0;
    for (const RunRow &row : sweep.rows) {
        SCOPED_TRACE(row.key.workload + " / " +
                     row.key.configLabel);
        // Zero crashes: device faults are absorbed as counted
        // partial failures, so every cell of this grid must
        // complete OK.
        EXPECT_TRUE(row.status.ok()) << row.status.toString();
        if (row.result.deviceDegraded())
            ++degraded_cells;
        retried_sectors += row.result.deviceRecoveredSectors;
        wp_violations += row.result.deviceWpViolations;
        offline_zones += row.result.deviceOfflineZones;
    }
    // The grid genuinely exercised every fault class.
    EXPECT_GT(degraded_cells, 0u);
    EXPECT_GT(retried_sectors, 0u);
    EXPECT_GT(wp_violations, 0u);
    EXPECT_GT(offline_zones, 0u);
}

TEST(DeviceFaultSweep, GridIsByteIdenticalAcrossJobCounts)
{
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions parallel;
    parallel.jobs = 4;
    EXPECT_EQ(deterministicJson(runGrid(std::move(serial))),
              deterministicJson(runGrid(std::move(parallel))));
}

TEST(DeviceFaultSweep, FaultFreeDeviceMatchesDevicelessRun)
{
    // The zero-rate anchor of the acceptance contract: mounting a
    // fault-free device must not change a single simulation
    // counter relative to the device-less baseline. Random
    // overwrites into an undersized log force cleaning and segment
    // reuse, so the device's reset path really runs.
    trace::Trace trace("overwrite");
    Rng rng(11);
    for (int i = 0; i < 6000; ++i)
        trace.appendWrite(rng.nextUint(4096), 8);
    for (int i = 0; i < 500; ++i)
        trace.appendRead(rng.nextUint(4096), 8);

    stl::SimConfig bare;
    bare.translation = stl::TranslationKind::FiniteLogStructured;
    bare.finiteLog.capacityBytes = 8 * kMiB;
    bare.finiteLog.segmentBytes = 512 * kKiB;

    stl::SimConfig mounted = bare;
    mounted.zonedDevice = disk::ZonedDeviceOptions{};

    const stl::SimResult a = stl::Simulator(bare).run(trace);
    const stl::SimResult b = stl::Simulator(mounted).run(trace);

    // Every member but the label (the device adds "+zdev") and the
    // device counters equals the device-less run's exactly.
    stl::forEachField(b, [&](const char *name, const auto &value) {
        const std::string_view field(name);
        if (field == "configLabel" || field.starts_with("device"))
            return;
        stl::forEachField(a, [&](const char *a_name, const auto &a_value) {
            if constexpr (std::is_same_v<decltype(a_value), decltype(value)>) {
                if (field == a_name) {
                    EXPECT_EQ(value, a_value) << name;
                }
            }
        });
    });

    // The device saw no faults and lost nothing...
    EXPECT_EQ(b.deviceReadRetries, 0u);
    EXPECT_EQ(b.deviceFailedReadSectors, 0u);
    EXPECT_EQ(b.deviceFailedWriteSectors, 0u);
    EXPECT_FALSE(b.deviceDegraded());
    // ...but its write pointers really moved: segment reuse by the
    // finite log shows up as zone resets.
    EXPECT_GT(b.deviceZoneResets, 0u);
}

} // namespace
} // namespace logseek::sweep
