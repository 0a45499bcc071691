/**
 * @file
 * Crash-recovery smoke benchmark: a reduced cut of the CrashRecovery
 * differential matrix, sized to run in CI seconds, that exercises
 * every translation layer's power-loss path end to end — journaled
 * replay, device crash / torn-tail injection, log-scan remount,
 * Fsck, and the oracle equivalence check — and writes a summary
 * to a JSON file (default BENCH_crash_recovery.smoke.json).
 *
 * Exits non-zero when any crash point fails to recover
 * consistently, so CI treats a recovery regression like a test
 * failure. The stateDigest per cell is seeded-deterministic: equal
 * seeds must reproduce equal digests run over run, which is what
 * makes the JSON diffable across commits.
 *
 * Usage: crash_recovery_bench [scale] [seed] [--json=path]
 *
 * scale multiplies the trace length (ops = 360 * scale / 0.02,
 * i.e. the default scale replays 360 ops per cell); seed feeds the
 * trace generator and the torn-tail draws.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "stl/testing/crash_harness.h"
#include "sweep/cli.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

int
main(int argc, char **argv)
{
    using namespace logseek;
    using stl::testing::CrashCase;
    using stl::testing::CrashMatrixResult;

    auto cli = sweep::parseBenchCli(
        argc, argv, sweep::benchUsage("crash_recovery_bench"));
    if (!cli)
        return 2;
    // Arms telemetry when an observability flag was parsed, so the
    // recovery counters and the mount-latency histogram land in
    // --metrics-out snapshots; the sweep options themselves are
    // unused (this bench runs its cells serially).
    (void)cli->sweepOptions();

    const std::size_t ops = static_cast<std::size_t>(
        360.0 * cli->profile.scale / 0.02);
    const std::uint64_t seed = cli->profile.seed;
    const Lba address_space = bytesToSectors(2 * kMiB);
    const trace::Trace trace =
        stl::testing::crashTrace(ops, seed, address_space);

    // One cell per layer, alternating the zoned-device leg so the
    // smoke stays fast while every crash path (device power loss,
    // offline torn tail) runs.
    const std::vector<CrashCase> cells{
        {stl::TranslationKind::LogStructured, true, false, 29, seed},
        {stl::TranslationKind::LogStructured, true, true, 97, seed},
        {stl::TranslationKind::FiniteLogStructured, false, true, 131,
         seed},
        {stl::TranslationKind::MediaCache, false, false, 41, seed},
        {stl::TranslationKind::Conventional, false, false, 59, seed},
    };

    const std::string path =
        cli->jsonPath && *cli->jsonPath != "-"
            ? *cli->jsonPath
            : "BENCH_crash_recovery.smoke.json";

    bool all_ok = true;
    std::ostringstream json;
    json << "{\n  \"benchmark\": \"crash_recovery\",\n"
         << "  \"ops\": " << ops << ",\n  \"seed\": " << seed
         << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CrashCase &cell = cells[i];
        const CrashMatrixResult result =
            stl::testing::runCrashMatrix(cell, trace);
        all_ok = all_ok && result.ok();
        std::cout << cell.label() << ": "
                  << (result.ok() ? "ok" : "FAIL") << " ("
                  << result.crashesRun << " crashes, "
                  << result.tornTails << " torn tails, "
                  << result.epochsApplied << " epochs replayed, "
                  << result.entriesChecked
                  << " entries fsck-checked)\n";
        if (!result.ok())
            std::cout << "  " << result.failure << "\n";
        json << "    {\"cell\": \""
             << telemetry::jsonEscape(cell.label())
             << "\", \"ok\": " << (result.ok() ? "true" : "false")
             << ", \"crashes\": " << result.crashesRun
             << ", \"tornTails\": " << result.tornTails
             << ", \"truncatedEpochs\": " << result.truncatedEpochs
             << ", \"epochsApplied\": " << result.epochsApplied
             << ", \"entriesChecked\": " << result.entriesChecked
             << ", \"stateDigest\": \"" << std::hex
             << result.stateDigest << std::dec << "\"";
        if (!result.ok())
            json << ", \"failure\": \""
                 << telemetry::jsonEscape(result.failure) << "\"";
        json << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"ok\": " << (all_ok ? "true" : "false")
         << "\n}\n";

    std::ofstream file(path);
    if (!file) {
        std::cerr << "crash_recovery_bench: cannot write " << path
                  << "\n";
        return 1;
    }
    file << json.str();
    std::cout << (all_ok ? "every crash point recovered "
                           "consistently\n"
                         : "RECOVERY FAILURE — see above\n")
              << "report: " << path << "\n";
    if (!cli->metricsOutPath.empty())
        telemetry::writeMetricsFile(
            telemetry::Registry::global().snapshot(),
            cli->metricsOutPath);
    return all_ok ? 0 : 1;
}
