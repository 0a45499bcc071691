/**
 * @file
 * Uniform machine-readable sweep reports.
 *
 * Every bench harness emits the same JSON and CSV shapes, so one
 * plotting/diffing toolchain covers all figures: a `sweep` object
 * with telemetry (jobs, wall-clock, ops/sec) and one row per
 * (workload, config) cell carrying every SimResult field plus
 * per-run wall-clock. Simulation fields are deterministic —
 * byte-identical across job counts — while telemetry fields
 * (wallSec, replaySec, opsPerSec) vary run to run.
 */

#ifndef LOGSEEK_SWEEP_REPORT_H
#define LOGSEEK_SWEEP_REPORT_H

#include <iosfwd>
#include <string>

#include "sweep/sweep_runner.h"

namespace logseek::sweep
{

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &text);

/**
 * Write the sweep as a JSON document. With telemetry disabled,
 * only deterministic fields are emitted (the form the determinism
 * tests compare across job counts).
 */
void writeJson(std::ostream &out, const SweepResult &sweep,
               bool with_telemetry = true);

/** Write the sweep as CSV, one header row plus one row per cell. */
void writeCsv(std::ostream &out, const SweepResult &sweep,
              bool with_telemetry = true);

/**
 * Render a report to the named file ("-" means stdout). Returns
 * false (with a message on stderr) when the file cannot be opened.
 */
bool writeJsonFile(const std::string &path, const SweepResult &sweep);
bool writeCsvFile(const std::string &path, const SweepResult &sweep);

} // namespace logseek::sweep

#endif // LOGSEEK_SWEEP_REPORT_H
