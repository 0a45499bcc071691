/**
 * @file
 * Shared command-line front end for the bench harnesses.
 *
 * Every figure/ablation binary takes the same surface:
 *
 *   harness [scale] [seed] [--jobs N|auto] [--json[=path]]
 *           [--csv[=path]] [--paranoid]
 *           [--metrics-out file] [--trace-out file]
 *           [--fault-rate R] [--bad-sector-seed N]
 *           [--max-open-zones N] [--error-log-cap N]
 *           [--log-capacity N] [--segment-bytes N]
 *           [--clean-reserve N] [--trace-format F]
 *           [--convert-out file] [--help]
 *
 * scale/seed feed the synthetic workload profiles; --jobs sets the
 * sweep worker count ("auto" = hardware concurrency; 0 and negative
 * values are rejected); --json/--csv emit the uniform machine-
 * readable report next to the human-readable tables (default path
 * "-" = stdout); --paranoid replays every run under a fresh
 * ValidatingObserver in paranoid mode. The observability flags arm
 * the telemetry subsystem (off, and costing nothing, by default):
 * --metrics-out writes a metrics snapshot after the sweep
 * (.prom/.txt selects Prometheus text, anything else JSON) and
 * --trace-out writes a Chrome trace_event JSON file of the sweep's
 * spans. The device and finite-log flags feed the benches that
 * model them. All numeric arguments are validated strictly — a
 * malformed value is a typed InvalidArgument error, never a silent
 * default; an unknown flag is an error too.
 */

#ifndef LOGSEEK_SWEEP_CLI_H
#define LOGSEEK_SWEEP_CLI_H

#include <optional>
#include <string>
#include <vector>

#include "sweep/sweep_runner.h"
#include "trace/format.h"
#include "util/status.h"
#include "workloads/profiles.h"

namespace logseek::sweep
{

/** Parsed common bench options. */
struct BenchCli
{
    /** Workload scale/seed (positional arguments). */
    workloads::ProfileOptions profile;

    /** Sweep worker threads (--jobs; 0 = hardware concurrency,
     *  only reachable via "--jobs auto"). */
    int jobs = 1;

    /** Replay under a paranoid ValidatingObserver (--paranoid). */
    bool paranoid = false;

    /** Report destinations; "-" means stdout. */
    std::optional<std::string> jsonPath;
    std::optional<std::string> csvPath;

    /** Metrics snapshot destination (--metrics-out); empty = off,
     *  "-" = stdout, .prom/.txt = Prometheus text, else JSON. */
    std::string metricsOutPath;

    /** Chrome trace_event destination (--trace-out); empty = off,
     *  "-" = stdout. */
    std::string traceOutPath;

    /** Device fault rate (--fault-rate, in [0, 1]); feeds the
     *  zoned-device fault model of benches that model media
     *  errors. */
    double faultRate = 0.0;

    /** Seed of the device's bad-sector map (--bad-sector-seed). */
    std::uint64_t badSectorSeed = 0xbad5ec70ULL;

    /** Zoned-device open-zone limit (--max-open-zones, in
     *  [1, 65536]). */
    std::uint32_t maxOpenZones = 8;

    /** Read-error-log bound (--error-log-cap, in [1, 1048576]);
     *  0 = keep the device default
     *  (disk::ReadErrorLog::kMaxEntries). Entries past the cap are
     *  dropped and counted, never silently lost. */
    std::size_t errorLogCap = 0;

    /** Finite-log capacity override in bytes (--log-capacity, in
     *  [1 MiB, 1 TiB]); 0 = keep the bench default. Lets GC
     *  experiments change utilization without recompiling. */
    std::uint64_t logCapacityBytes = 0;

    /** Finite-log segment size override in bytes
     *  (--segment-bytes, in [64 KiB, 1 GiB]); 0 = bench
     *  default. */
    std::uint64_t segmentBytes = 0;

    /** Finite-log cleaning reserve override in segments
     *  (--clean-reserve, in [1, 1024]); 0 = bench default. The
     *  clean target follows at reserve + 2 unless the bench sets
     *  its own. */
    std::uint32_t cleanReserve = 0;

    /** Declared format of trace files a bench reads or converts
     *  (--trace-format {auto, csv, lskc}); Auto (the
     *  default) resolves by magic sniff / extension. Parsed
     *  strictly — any other spelling is InvalidArgument. */
    trace::TraceFormat traceFormat = trace::TraceFormat::Auto;

    /** Destination of a trace conversion (--convert-out); empty =
     *  no conversion requested. sweepOptions() turns this into an
     *  onTrace hook exporting the first workload's trace; the
     *  output format follows the path's extension unless
     *  --trace-format overrides it. Named --convert-out because
     *  --trace-out is already the Chrome trace_event
     *  destination. */
    std::string convertOutPath;

    /** --help / -h was given; the caller prints help and exits. */
    bool helpRequested = false;

    /** Worker count with 0 resolved to hardware concurrency. */
    int resolvedJobs() const;

    /**
     * Observer factory combining --paranoid with a bench-specific
     * factory (may be null): paranoid validators come first, the
     * extra factory's observers after.
     */
    ObserverFactory
    observerFactory(ObserverFactory extra = nullptr) const;

    /**
     * SweepOptions reflecting the parsed jobs and observer flags.
     * With --convert-out it pre-installs an onTrace hook that
     * exports the first workload's trace in the --trace-format (or
     * extension-implied) format, so benches that install their
     * own onTrace hook must chain the existing one:
     *
     *   auto chained = std::move(options.onTrace);
     *   options.onTrace = [chained, ...](std::size_t w,
     *                                    const trace::Trace &t) {
     *       if (chained) chained(w, t);
     *       ...
     *   };
     *
     * Also arms the telemetry subsystem (enables collection, installs
     * the process-wide trace writer) when --metrics-out or
     * --trace-out was given; telemetry stays disabled otherwise.
     */
    SweepOptions sweepOptions(ObserverFactory extra = nullptr) const;

    /**
     * Write the sweep to the requested --json/--csv outputs, then
     * the telemetry snapshot/trace to --metrics-out/--trace-out.
     */
    void emitReports(const SweepResult &sweep) const;

    /**
     * Apply the --log-capacity / --segment-bytes /
     * --clean-reserve overrides onto a bench's finite-log
     * configuration; flags left at 0 keep the bench's values.
     * When --clean-reserve is set the clean target is raised to
     * reserve + 2 if it would not otherwise exceed the reserve.
     */
    void applyFiniteLogOverrides(stl::FiniteLogConfig &config)
        const;
};

/** The standard one-line usage string for a bench binary. */
std::string benchUsage(const std::string &name);

/** The full --help text for a bench binary (multi-line). */
std::string benchHelp(const std::string &name);

/**
 * Every flag the shared bench surface accepts, in help order. The
 * CLI test asserts benchHelp() documents exactly this set, so the
 * help text cannot drift from the parser.
 */
std::vector<std::string> benchFlagNames();

/**
 * Typed-error parse of the shared bench surface: InvalidArgument
 * (with a message naming the offending flag and value) on an
 * unknown option, an excess positional, or a malformed number —
 * including --jobs 0, negative counts and non-numeric text.
 */
StatusOr<BenchCli> tryParseBenchCli(int argc, char **argv,
                                    double default_scale = 0.02);

/**
 * Convenience wrapper around tryParseBenchCli: on error, prints the
 * message and the usage line to stderr and returns nullopt (callers
 * exit 2). On --help, prints benchHelp() to stdout and exits 0.
 *
 * @param argc,argv main()'s arguments.
 * @param usage One-line usage string; benchUsage(name) builds the
 *        standard one.
 * @param default_scale Profile scale when no positional scale is
 *        given (benches historically default to 0.02 or 0.01).
 */
std::optional<BenchCli> parseBenchCli(int argc, char **argv,
                                      const std::string &usage,
                                      double default_scale = 0.02);

} // namespace logseek::sweep

#endif // LOGSEEK_SWEEP_CLI_H
