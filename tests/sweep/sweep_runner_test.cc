/**
 * @file
 * Tests for SweepRunner: deterministic results across job counts
 * (the core guarantee — parallel sweeps must be byte-identical to
 * serial ones across every translation kind and mechanism combo),
 * grid ordering, per-run observer freshness, trace sharing, and
 * failure isolation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stl/simulator.h"
#include "sweep/report.h"
#include "sweep/sweep_runner.h"
#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/units.h"
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

stl::SimConfig
configFor(stl::TranslationKind kind, bool defrag = false,
          bool prefetch = false, bool cache = false)
{
    stl::SimConfig config;
    config.translation = kind;
    if (defrag)
        config.defrag = stl::DefragConfig{};
    if (prefetch)
        config.prefetch = stl::PrefetchConfig{};
    if (cache)
        config.cache = stl::SelectiveCacheConfig{8 * kMiB};
    return config;
}

/** A config matrix covering every translation kind and all of the
 *  paper's mechanisms (alone and combined). */
std::vector<ConfigSpec>
fullMatrix()
{
    std::vector<ConfigSpec> configs;
    configs.push_back(ConfigSpec::fixed(
        "NoLS", configFor(stl::TranslationKind::Conventional)));
    configs.push_back(ConfigSpec::fixed(
        "LS", configFor(stl::TranslationKind::LogStructured)));
    configs.push_back(ConfigSpec::fixed(
        "LS+defrag",
        configFor(stl::TranslationKind::LogStructured, true)));
    configs.push_back(ConfigSpec::fixed(
        "LS+prefetch",
        configFor(stl::TranslationKind::LogStructured, false, true)));
    configs.push_back(ConfigSpec::fixed(
        "LS+cache", configFor(stl::TranslationKind::LogStructured,
                              false, false, true)));
    configs.push_back(ConfigSpec::fixed(
        "LS+all", configFor(stl::TranslationKind::LogStructured,
                            true, true, true)));
    configs.push_back(ConfigSpec::fixed(
        "MC", configFor(stl::TranslationKind::MediaCache)));
    configs.push_back(ConfigSpec::deferred(
        "FiniteLS", [](const trace::Trace &) {
            stl::SimConfig config = configFor(
                stl::TranslationKind::FiniteLogStructured);
            stl::FiniteLogConfig log;
            log.capacityBytes = 256 * kMiB;
            log.segmentBytes = 1 * kMiB;
            config.finiteLog = log;
            return config;
        }));
    return configs;
}

std::vector<WorkloadSpec>
tinyWorkloads()
{
    std::vector<WorkloadSpec> specs;
    for (const char *name : {"usr_1", "w91", "src2_2"})
        specs.push_back(WorkloadSpec::profile(name, tinyProfile()));
    return specs;
}

std::string
deterministicJson(const SweepResult &sweep)
{
    std::ostringstream out;
    writeJson(out, sweep, /*with_telemetry=*/false);
    return out.str();
}

TEST(SweepRunnerTest, ParallelRunIsByteIdenticalToSerial)
{
    SweepOptions serial;
    serial.jobs = 1;
    SweepResult one =
        SweepRunner(tinyWorkloads(), fullMatrix(), serial).run();

    SweepOptions parallel;
    parallel.jobs = 8;
    SweepResult eight =
        SweepRunner(tinyWorkloads(), fullMatrix(), parallel).run();

    ASSERT_EQ(one.rows.size(), eight.rows.size());
    for (std::size_t i = 0; i < one.rows.size(); ++i) {
        EXPECT_EQ(one.rows[i].key.workload,
                  eight.rows[i].key.workload);
        EXPECT_EQ(one.rows[i].key.configLabel,
                  eight.rows[i].key.configLabel);
        EXPECT_TRUE(one.rows[i].status.ok())
            << one.rows[i].status.message();
        EXPECT_TRUE(eight.rows[i].status.ok());
    }
    // The deterministic report form must match byte for byte.
    EXPECT_EQ(deterministicJson(one), deterministicJson(eight));
}

TEST(SweepRunnerTest, TelemetryDoesNotPerturbSweepResults)
{
    // The acceptance bar for observability: with collection armed,
    // the deterministic report form stays byte-identical to the
    // un-instrumented sweep at any job count.
    auto runAt = [](int jobs) {
        SweepOptions options;
        options.jobs = jobs;
        return SweepRunner(tinyWorkloads(), fullMatrix(), options)
            .run();
    };
    telemetry::Registry::global().resetValues();
    const std::string plain = deterministicJson(runAt(1));

    telemetry::setEnabled(true);
    const std::string instrumented_serial =
        deterministicJson(runAt(1));
    const std::string instrumented_parallel =
        deterministicJson(runAt(2));
    telemetry::setEnabled(false);

    EXPECT_EQ(plain, instrumented_serial);
    EXPECT_EQ(plain, instrumented_parallel);

    // And the sweep actually reported into the registry.
    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    const telemetry::CounterSnapshot *tasks =
        snap.findCounter("sweep_tasks_total");
    ASSERT_NE(tasks, nullptr);
    EXPECT_GT(tasks->value, 0u);
    const telemetry::CounterSnapshot *ok_cells =
        snap.findCounter("sweep_cells_total", "outcome=\"OK\"");
    ASSERT_NE(ok_cells, nullptr);
    EXPECT_GT(ok_cells->value, 0u);
}

TEST(SweepRunnerTest, RowsAreInGridOrder)
{
    SweepOptions options;
    options.jobs = 4;
    const SweepResult sweep =
        SweepRunner(tinyWorkloads(), fullMatrix(), options).run();

    ASSERT_EQ(sweep.rows.size(),
              sweep.workloads.size() * sweep.configs.size());
    for (std::size_t w = 0; w < sweep.workloads.size(); ++w) {
        for (std::size_t c = 0; c < sweep.configs.size(); ++c) {
            const RunRow &row = sweep.row(w, c);
            EXPECT_EQ(row.key.workloadIndex, w);
            EXPECT_EQ(row.key.configIndex, c);
            EXPECT_EQ(row.key.workload, sweep.workloads[w]);
            EXPECT_EQ(row.key.configLabel, sweep.configs[c]);
        }
    }
}

TEST(SweepRunnerTest, ResultsMatchDirectSimulatorRuns)
{
    // The sweep is a scheduling layer only: each cell must equal a
    // straight Simulator::run on the same trace and config.
    const trace::Trace trace =
        workloads::makeWorkload("usr_1", tinyProfile());
    const stl::SimResult direct =
        stl::Simulator(
            configFor(stl::TranslationKind::LogStructured, true,
                      true, true))
            .run(trace);

    SweepOptions options;
    options.jobs = 2;
    const SweepResult sweep =
        SweepRunner({WorkloadSpec::profile("usr_1", tinyProfile())},
                    {ConfigSpec::fixed(
                        "LS+all",
                        configFor(stl::TranslationKind::LogStructured,
                                  true, true, true))},
                    options)
            .run();

    const stl::SimResult &cell = sweep.row(0, 0).result;
    EXPECT_EQ(cell.readSeeks, direct.readSeeks);
    EXPECT_EQ(cell.writeSeeks, direct.writeSeeks);
    EXPECT_EQ(cell.fragmentedReads, direct.fragmentedReads);
    EXPECT_EQ(cell.cacheHits, direct.cacheHits);
    EXPECT_EQ(cell.prefetchHits, direct.prefetchHits);
    EXPECT_EQ(cell.defragRewrites, direct.defragRewrites);
    EXPECT_EQ(cell.mediaReadBytes, direct.mediaReadBytes);
    EXPECT_EQ(cell.mediaWriteBytes, direct.mediaWriteBytes);
    EXPECT_DOUBLE_EQ(cell.seekTimeSec, direct.seekTimeSec);
}

TEST(SweepRunnerTest, ObserverFactoryGivesEveryRunFreshObservers)
{
    struct CountingObserver : stl::SimObserver
    {
        void onEvent(const stl::IoEvent &) override {}
    };

    std::atomic<int> created{0};
    std::mutex mutex;
    std::set<const stl::SimObserver *> instances;

    SweepOptions options;
    options.jobs = 4;
    options.observerFactory = [&](const RunKey &) {
        std::vector<std::unique_ptr<stl::SimObserver>> observers;
        observers.push_back(std::make_unique<CountingObserver>());
        created.fetch_add(1);
        return observers;
    };
    const SweepResult sweep =
        SweepRunner(tinyWorkloads(),
                    {ConfigSpec::fixed(
                         "NoLS",
                         configFor(stl::TranslationKind::Conventional)),
                     ConfigSpec::fixed(
                         "LS",
                         configFor(stl::TranslationKind::LogStructured))},
                    options)
            .run();

    EXPECT_EQ(created.load(),
              static_cast<int>(sweep.rows.size()));
    for (const RunRow &row : sweep.rows) {
        ASSERT_EQ(row.observers.size(), 1u);
        std::lock_guard<std::mutex> lock(mutex);
        // Every row keeps its own distinct observer instance.
        EXPECT_TRUE(instances.insert(row.observers[0].get()).second);
    }
}

TEST(SweepRunnerTest, FailingConfigDoesNotPoisonOtherCells)
{
    SweepOptions options;
    options.jobs = 4;
    telemetry::Registry::global().resetValues();
    telemetry::setEnabled(true);
    const SweepResult sweep =
        SweepRunner(
            tinyWorkloads(),
            {ConfigSpec::fixed(
                 "NoLS", configFor(stl::TranslationKind::Conventional)),
             ConfigSpec::deferred(
                 "broken",
                 [](const trace::Trace &) -> stl::SimConfig {
                     throw FatalError("deliberately broken config");
                 })},
            options)
            .run();
    telemetry::setEnabled(false);

    for (std::size_t w = 0; w < sweep.workloads.size(); ++w) {
        EXPECT_TRUE(sweep.row(w, 0).status.ok());
        EXPECT_FALSE(sweep.row(w, 1).status.ok());
        EXPECT_FALSE(sweep.safVs(w, 1).has_value());
        EXPECT_TRUE(sweep.safVs(w, 0).has_value());
    }
    EXPECT_EQ(sweep.telemetry.failedRuns, sweep.workloads.size());

    // Failed cells are counted under their own outcome label.
    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    for (const char *outcome : {"OK", "FAILED"}) {
        const telemetry::CounterSnapshot *cells = snap.findCounter(
            "sweep_cells_total",
            std::string("outcome=\"") + outcome + "\"");
        ASSERT_NE(cells, nullptr) << outcome;
        EXPECT_EQ(cells->value, sweep.workloads.size()) << outcome;
    }
}

TEST(SweepRunnerTest, FailingLoaderFailsOnlyItsOwnRow)
{
    std::vector<WorkloadSpec> specs = tinyWorkloads();
    specs.push_back(
        {"broken-load",
         []() -> trace::Trace {
             throw FatalError("deliberately broken loader");
         },
         nullptr});

    SweepOptions options;
    options.jobs = 4;
    const SweepResult sweep =
        SweepRunner(std::move(specs),
                    {ConfigSpec::fixed(
                        "NoLS",
                        configFor(stl::TranslationKind::Conventional))},
                    options)
            .run();

    for (std::size_t w = 0; w + 1 < sweep.workloads.size(); ++w)
        EXPECT_TRUE(sweep.row(w, 0).status.ok());
    const RunRow &broken =
        sweep.row(sweep.workloads.size() - 1, 0);
    EXPECT_FALSE(broken.status.ok());
    EXPECT_NE(broken.status.message().find("broken loader"),
              std::string::npos);
}

TEST(SweepRunnerTest, StandardExceptionsFailTheirCells)
{
    // Exceptions outside logseek's own error types must still fail
    // their cells, and every cell must still report completion.
    std::vector<WorkloadSpec> specs;
    specs.push_back(WorkloadSpec::profile("w91", tinyProfile()));
    specs.push_back({"throws-runtime-error",
                     []() -> trace::Trace {
                         throw std::runtime_error("loader blew up");
                     },
                     nullptr});
    std::vector<ConfigSpec> configs;
    configs.push_back(ConfigSpec::fixed(
        "NoLS", configFor(stl::TranslationKind::Conventional)));
    configs.push_back(ConfigSpec::deferred(
        "throws-out-of-range",
        [](const trace::Trace &) -> stl::SimConfig {
            throw std::out_of_range("config blew up");
        }));

    std::atomic<int> completed{0};
    SweepOptions options;
    options.jobs = 2;
    options.onCellComplete = [&](const RunRow &) {
        completed.fetch_add(1);
    };
    const SweepResult sweep =
        SweepRunner(std::move(specs), std::move(configs), options)
            .run();

    EXPECT_EQ(completed.load(), 4);
    EXPECT_TRUE(sweep.row(0, 0).status.ok());
    EXPECT_EQ(sweep.row(0, 1).status.code(), StatusCode::Internal);
    EXPECT_NE(sweep.row(0, 1).status.message().find("config blew up"),
              std::string::npos);
    for (std::size_t c = 0; c < 2; ++c) {
        const Status &status = sweep.row(1, c).status;
        EXPECT_EQ(status.code(), StatusCode::Internal) << c;
        EXPECT_NE(status.message().find("loader blew up"),
                  std::string::npos)
            << c;
    }
    EXPECT_EQ(sweep.telemetry.failedRuns, 3u);
}

/**
 * Peak count of loaded-but-unfinished workloads in a 21-workload,
 * two-config sweep at `jobs`, counted from the start of each load
 * to its workload's last completed cell. The traces are tiny, so
 * loads and cells interleave with the submission of later loads.
 */
std::size_t
peakLoadedWorkloads(int jobs)
{
    const std::vector<ConfigSpec> configs = {
        ConfigSpec::fixed(
            "NoLS", configFor(stl::TranslationKind::Conventional)),
        ConfigSpec::fixed(
            "LS", configFor(stl::TranslationKind::LogStructured))};
    constexpr std::size_t kWorkloads = 21;
    std::mutex mutex;
    std::size_t in_flight = 0;
    std::size_t peak = 0;
    std::vector<std::size_t> cells_left(kWorkloads, configs.size());
    std::vector<WorkloadSpec> specs;
    for (std::size_t w = 0; w < kWorkloads; ++w) {
        specs.push_back(
            {"tiny" + std::to_string(w),
             [&] {
                 {
                     std::lock_guard<std::mutex> lock(mutex);
                     peak = std::max(peak, ++in_flight);
                 }
                 trace::Trace trace("tiny");
                 for (std::uint64_t i = 0; i < 64; ++i) {
                     trace.appendWrite(i * 16, 8, 2 * i);
                     trace.appendRead(i * 8, 16, 2 * i + 1);
                 }
                 return trace;
             },
             nullptr});
    }
    SweepOptions options;
    options.jobs = jobs;
    options.onCellComplete = [&](const RunRow &row) {
        std::lock_guard<std::mutex> lock(mutex);
        if (--cells_left[row.key.workloadIndex] == 0)
            --in_flight;
    };
    const SweepResult sweep =
        SweepRunner(std::move(specs), configs, options).run();
    EXPECT_EQ(sweep.telemetry.failedRuns, 0u) << "jobs " << jobs;
    EXPECT_EQ(in_flight, 0u) << "jobs " << jobs;
    return peak;
}

TEST(SweepRunnerTest, LoadedWorkloadsNeverExceedJobs)
{
    // A load starts only when no cell is queued, so at most `jobs`
    // workloads are loaded and unfinished at any moment: the bound
    // behind the runner's peak-memory promise. Repeated, because a
    // scheduler that breaks the bound does so only on some
    // interleavings.
    for (const int jobs : {1, 2, 4}) {
        for (int round = 0; round < 20; ++round) {
            const std::size_t peak = peakLoadedWorkloads(jobs);
            ASSERT_GE(peak, 1u) << "jobs " << jobs;
            ASSERT_LE(peak, static_cast<std::size_t>(jobs))
                << "jobs " << jobs << " round " << round;
        }
    }
}

TEST(SweepRunnerTest, OnTraceHookSeesEveryWorkloadOnce)
{
    std::mutex mutex;
    std::vector<std::size_t> seen;
    SweepOptions options;
    options.jobs = 4;
    options.onTrace = [&](std::size_t w, const trace::Trace &trace) {
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_GT(trace.size(), 0u);
        seen.push_back(w);
    };
    // Trace-only sweep: no configs at all.
    const SweepResult sweep =
        SweepRunner(tinyWorkloads(), {}, options).run();
    EXPECT_TRUE(sweep.rows.empty());
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SweepRunnerTest, TelemetryCountsRunsAndOps)
{
    SweepOptions options;
    options.jobs = 2;
    const SweepResult sweep =
        SweepRunner(tinyWorkloads(),
                    {ConfigSpec::fixed(
                        "NoLS",
                        configFor(stl::TranslationKind::Conventional))},
                    options)
            .run();
    EXPECT_EQ(sweep.telemetry.runs, sweep.rows.size());
    EXPECT_EQ(sweep.telemetry.failedRuns, 0u);
    EXPECT_EQ(sweep.telemetry.jobs, 2);
    std::uint64_t ops = 0;
    for (const RunRow &row : sweep.rows)
        ops += row.ops;
    EXPECT_EQ(sweep.telemetry.ops, ops);
    EXPECT_GT(sweep.telemetry.ops, 0u);
    EXPECT_GE(sweep.telemetry.wallSec, 0.0);
}

} // namespace
} // namespace logseek::sweep
