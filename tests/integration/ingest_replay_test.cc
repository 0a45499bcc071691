/**
 * @file
 * End-to-end ingestion/replay byte-identity: a trace replayed from
 * an mmap'd LSKC file or a streaming generator must produce the
 * bit-identical SimResult (operator==, including the seekTimeSec
 * bit pattern) as the in-RAM path — across sweep --jobs {1, 2} and
 * two translation layers. Also pins
 * the source-lifecycle contract: the sweep drops its TraceSource
 * references once the last dependent cell completes.
 *
 * The suite name (IngestReplay*) keeps these tests inside the tsan
 * preset's test filter; the jobs=2 sweeps are what TSan exercises.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "stl/simulator.h"
#include "sweep/sweep_runner.h"
#include "trace/lskc.h"
#include "util/random.h"
#include "workloads/stream.h"

namespace logseek::sweep
{
namespace
{

trace::Trace
randomTrace(std::uint64_t seed, std::size_t ops)
{
    Rng rng(seed);
    trace::Trace trace("ingest-" + std::to_string(seed));
    for (std::size_t i = 0; i < ops; ++i) {
        const SectorCount count = 1 + rng.nextUint(32);
        const Lba lba = rng.nextUint((1ULL << 22) - count);
        if (rng.nextBool(0.5))
            trace.appendWrite(lba, count, i * 5);
        else
            trace.appendRead(lba, count, i * 5);
    }
    return trace;
}

std::string
tempPath(const std::string &tag)
{
    return "/tmp/logseek_ingest_" + tag + "_" +
           std::to_string(::getpid());
}

stl::SimConfig
layerConfig(stl::TranslationKind kind)
{
    stl::SimConfig config;
    config.translation = kind;
    return config;
}

constexpr stl::TranslationKind kLs = stl::TranslationKind::LogStructured;
constexpr stl::TranslationKind kNoLs =
    stl::TranslationKind::Conventional;

/** The two cells of every sweep below: LS and the NoLS baseline. */
std::vector<ConfigSpec>
layerConfigs()
{
    std::vector<ConfigSpec> configs;
    configs.push_back(ConfigSpec::fixed("LS", layerConfig(kLs)));
    configs.push_back(ConfigSpec::fixed("NoLS", layerConfig(kNoLs)));
    return configs;
}

/** Direct in-RAM replay under the given layer. */
stl::SimResult
ramResult(const trace::Trace &trace, stl::TranslationKind kind)
{
    stl::Simulator simulator(layerConfig(kind));
    return simulator.run(trace);
}

TEST(IngestReplay, LskcSweepMatchesRamAcrossJobs)
{
    const trace::Trace trace = randomTrace(21, 3000);
    const std::string path = tempPath("grid") + ".lskc";
    ASSERT_TRUE(trace::tryWriteLskcFile(path, trace).ok());

    const stl::SimResult ram_ls = ramResult(trace, kLs);
    const stl::SimResult ram_nols = ramResult(trace, kNoLs);

    for (const int jobs : {1, 2}) {
        std::vector<WorkloadSpec> workloads;
        workloads.push_back(WorkloadSpec::source(
            trace.name(), [path] {
                auto source = trace::LskcSource::tryOpen(path);
                EXPECT_TRUE(source.ok())
                    << source.status().message();
                return source.value();
            }));
        SweepOptions options;
        options.jobs = jobs;
        SweepRunner runner(workloads, layerConfigs(), options);
        const SweepResult result = runner.run();

        ASSERT_EQ(result.rows.size(), 2u) << "jobs " << jobs;
        ASSERT_TRUE(result.row(0, 0).status.ok())
            << result.row(0, 0).status.message();
        ASSERT_TRUE(result.row(0, 1).status.ok());
        // Byte identity against the in-RAM path at every cell.
        EXPECT_TRUE(result.row(0, 0).result == ram_ls)
            << "jobs " << jobs;
        EXPECT_TRUE(result.row(0, 1).result == ram_nols)
            << "jobs " << jobs;
        EXPECT_EQ(result.row(0, 0).ops, trace.size());
    }
    std::remove(path.c_str());
}

TEST(IngestReplay, StreamedSweepMatchesRamAcrossJobs)
{
    const workloads::StreamSpec spec =
        workloads::mixedStream("stream-mix", 3, 800, 31);
    workloads::WorkloadStream probe(spec);
    const trace::Trace materialized = trace::materialize(probe);

    const stl::SimResult ram_ls = ramResult(materialized, kLs);
    const stl::SimResult ram_nols = ramResult(materialized, kNoLs);

    for (const int jobs : {1, 2}) {
        std::vector<WorkloadSpec> workloads_list;
        workloads_list.push_back(WorkloadSpec::source(
            spec.name, [spec] {
                return std::make_shared<
                    const workloads::StreamSource>(spec);
            }));
        SweepOptions options;
        options.jobs = jobs;
        SweepRunner runner(workloads_list, layerConfigs(), options);
        const SweepResult result = runner.run();

        ASSERT_TRUE(result.row(0, 0).status.ok())
            << result.row(0, 0).status.message();
        ASSERT_TRUE(result.row(0, 1).status.ok());
        EXPECT_TRUE(result.row(0, 0).result == ram_ls)
            << "jobs " << jobs;
        EXPECT_TRUE(result.row(0, 1).result == ram_nols)
            << "jobs " << jobs;
    }
}

TEST(IngestReplay, SourceIsReleasedWhenItsLastCellCompletes)
{
    const trace::Trace trace = randomTrace(27, 500);
    // The loader hands its only strong reference to the runner;
    // after run() returns every runner-side copy must be gone.
    auto holder = std::make_shared<
        std::shared_ptr<const trace::TraceSource>>(
        std::make_shared<const trace::InMemoryTraceSource>(trace));
    std::weak_ptr<const trace::TraceSource> alive = *holder;

    std::vector<WorkloadSpec> workloads_list;
    workloads_list.push_back(WorkloadSpec::source(
        trace.name(),
        [holder] { return std::move(*holder); }));
    const std::vector<ConfigSpec> configs = layerConfigs();

    SweepOptions options;
    options.jobs = 2;
    SweepRunner runner(workloads_list, configs, options);
    const SweepResult result = runner.run();
    ASSERT_TRUE(result.row(0, 0).status.ok());
    ASSERT_TRUE(result.row(0, 1).status.ok());
    EXPECT_TRUE(alive.expired())
        << "the sweep still holds a TraceSource reference after "
           "its last cell completed";
}

TEST(IngestReplay, TraceSizingConfigOnStreamedWorkloadFailsTyped)
{
    // A Trace-sizing config (ConfigSpec::deferred) cannot run on a
    // workload that never materializes a Trace; the cell must fail
    // with a typed InvalidArgument, not crash or silently skip.
    std::vector<WorkloadSpec> workloads_list;
    workloads_list.push_back(WorkloadSpec::source(
        "stream", [] {
            return std::make_shared<const workloads::StreamSource>(
                workloads::mixedStream("stream", 1, 100, 1));
        }));
    std::vector<ConfigSpec> configs;
    configs.push_back(ConfigSpec::deferred(
        "sized", [](const trace::Trace &) {
            return stl::SimConfig{};
        }));

    SweepRunner runner(workloads_list, configs, SweepOptions{});
    const SweepResult result = runner.run();
    ASSERT_EQ(result.rows.size(), 1u);
    const RunRow &row = result.row(0, 0);
    ASSERT_FALSE(row.status.ok());
    EXPECT_EQ(row.status.code(), StatusCode::InvalidArgument);
    EXPECT_NE(row.status.message().find("not RAM-backed"),
              std::string::npos)
        << row.status.message();
}

} // namespace
} // namespace logseek::sweep
