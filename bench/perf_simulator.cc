/**
 * @file
 * End-to-end throughput of the trace-replay engine: requests per
 * second under each translation/mechanism configuration, on a
 * pre-generated mixed workload.
 *
 * Two modes:
 *  - Default: google-benchmark microbenchmarks.
 *  - --json=PATH: measures serial replay ops/sec for the key
 *    configurations and writes the "replay" section of the tracking
 *    file (BENCH_extent_map.json), preserving the "extent_map"
 *    section written by perf_extent_map. --ops=N scales the trace
 *    (CI smoke uses a small N); --reps=R controls timing repeats.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "stl/simulator.h"
#include "util/random.h"

namespace
{

using namespace logseek;

trace::Trace
mixedTrace(std::size_t ops)
{
    Rng rng(123);
    trace::Trace trace("perf");
    constexpr Lba kSpace = 1 << 22;
    for (std::size_t i = 0; i < ops; ++i) {
        const SectorCount count = 8 + rng.nextUint(56);
        const Lba lba = rng.nextUint(kSpace - count);
        if (rng.nextBool(0.4))
            trace.appendWrite(lba, count);
        else
            trace.appendRead(lba, count);
    }
    return trace;
}

const trace::Trace &
sharedTrace()
{
    static const trace::Trace trace = mixedTrace(200000);
    return trace;
}

void
runConfig(benchmark::State &state, const stl::SimConfig &config)
{
    const trace::Trace &trace = sharedTrace();
    for (auto _ : state) {
        stl::Simulator simulator(config);
        benchmark::DoNotOptimize(simulator.run(trace));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}

void
BM_Conventional(benchmark::State &state)
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::Conventional;
    runConfig(state, config);
}
BENCHMARK(BM_Conventional)->Unit(benchmark::kMillisecond);

void
BM_LogStructured(benchmark::State &state)
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::LogStructured;
    runConfig(state, config);
}
BENCHMARK(BM_LogStructured)->Unit(benchmark::kMillisecond);

void
BM_LogStructuredDefrag(benchmark::State &state)
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::LogStructured;
    config.defrag = stl::DefragConfig{};
    runConfig(state, config);
}
BENCHMARK(BM_LogStructuredDefrag)->Unit(benchmark::kMillisecond);

void
BM_LogStructuredPrefetch(benchmark::State &state)
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::LogStructured;
    config.prefetch = stl::PrefetchConfig{};
    runConfig(state, config);
}
BENCHMARK(BM_LogStructuredPrefetch)->Unit(benchmark::kMillisecond);

void
BM_LogStructuredCache(benchmark::State &state)
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::LogStructured;
    config.cache = stl::SelectiveCacheConfig{64 * kMiB};
    runConfig(state, config);
}
BENCHMARK(BM_LogStructuredCache)->Unit(benchmark::kMillisecond);

void
BM_AllMechanisms(benchmark::State &state)
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::LogStructured;
    config.defrag = stl::DefragConfig{};
    config.prefetch = stl::PrefetchConfig{};
    config.cache = stl::SelectiveCacheConfig{64 * kMiB};
    runConfig(state, config);
}
BENCHMARK(BM_AllMechanisms)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------
// --json mode: serial replay throughput for the tracking file.
// ---------------------------------------------------------------

/** Best-of-`reps` serial replay throughput in requests/sec. */
double
measureOpsPerSec(const stl::SimConfig &config,
                 const trace::Trace &trace, int reps)
{
    double best_sec = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        stl::Simulator simulator(config);
        const auto start = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(simulator.run(trace));
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        const double sec = static_cast<double>(ns) * 1e-9;
        if (rep == 0 || sec < best_sec)
            best_sec = sec;
    }
    return best_sec > 0.0
               ? static_cast<double>(trace.size()) / best_sec
               : 0.0;
}

int
runJsonMode(const std::string &path, std::size_t ops, int reps)
{
    const trace::Trace trace = mixedTrace(ops);

    stl::SimConfig conventional;
    conventional.translation = stl::TranslationKind::Conventional;
    stl::SimConfig ls;
    ls.translation = stl::TranslationKind::LogStructured;
    stl::SimConfig ls_all;
    ls_all.translation = stl::TranslationKind::LogStructured;
    ls_all.defrag = stl::DefragConfig{};
    ls_all.prefetch = stl::PrefetchConfig{};
    ls_all.cache = stl::SelectiveCacheConfig{64 * kMiB};

    const std::vector<std::pair<std::string, stl::SimConfig>>
        configs = {{"NoLS", conventional},
                   {"LS", ls},
                   {"LS+all", ls_all}};

    std::ostringstream section;
    section.precision(6);
    section << "{\n"
            << "    \"ops\": " << trace.size() << ",\n"
            << "    \"reps\": " << reps << ",\n"
            << "    \"configs\": [\n";
    bool first = true;
    for (const auto &[name, config] : configs) {
        const double ops_per_sec =
            measureOpsPerSec(config, trace, reps);
        if (!first)
            section << ",\n";
        first = false;
        section << "      {\"name\": \"" << name
                << "\", \"opsPerSec\": " << ops_per_sec << "}";
        std::cout << "replay " << name << ": " << ops_per_sec
                  << " ops/sec\n";
    }
    section << "\n    ]\n"
            << "  }";

    const std::string existing = bench::readFile(path);
    const std::string extent_map =
        bench::extractSection(existing, "extent_map");
    if (!bench::writeSections(
            path,
            {{"extent_map", extent_map},
             {"replay", section.str()}})) {
        std::cerr << "perf_simulator: cannot write " << path
                  << "\n";
        return 1;
    }
    std::cout << "wrote " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::size_t ops = 200000;
    int reps = 3;
    std::vector<char *> pass;
    pass.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else if (arg.rfind("--ops=", 0) == 0)
            ops = std::stoull(arg.substr(6));
        else if (arg.rfind("--reps=", 0) == 0)
            reps = std::stoi(arg.substr(7));
        else
            pass.push_back(argv[i]);
    }
    if (!json_path.empty())
        return runJsonMode(json_path, ops, reps);

    int pass_argc = static_cast<int>(pass.size());
    benchmark::Initialize(&pass_argc, pass.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               pass.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
