#include "cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "analysis/validating_observer.h"
#include "sweep/report.h"
#include "trace/convert.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_writer.h"

namespace logseek::sweep
{

namespace
{

/** Strict base-10 integer: the whole string must be the number. */
StatusOr<long long>
parseIntArg(const std::string &flag, const std::string &text)
{
    if (text.empty())
        return invalidArgumentError(flag + " requires a number");
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        return invalidArgumentError(flag + ": not a number: '" +
                                    text + "'");
    if (errno == ERANGE)
        return invalidArgumentError(flag + ": out of range: '" +
                                    text + "'");
    return value;
}

/** Strict finite double: the whole string must be the number. */
StatusOr<double>
parseDoubleArg(const std::string &flag, const std::string &text)
{
    if (text.empty())
        return invalidArgumentError(flag + " requires a number");
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return invalidArgumentError(flag + ": not a number: '" +
                                    text + "'");
    if (errno == ERANGE || !std::isfinite(value))
        return invalidArgumentError(flag + ": out of range: '" +
                                    text + "'");
    return value;
}

/**
 * The trace writer owned by the shared CLI: function-local so it
 * exists only once a bench actually asks for --trace-out, and
 * static so it outlives the sweep whose spans it collects.
 */
telemetry::TraceEventWriter &
benchTraceWriter()
{
    static telemetry::TraceEventWriter writer;
    return writer;
}

} // namespace

int
BenchCli::resolvedJobs() const
{
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ObserverFactory
BenchCli::observerFactory(ObserverFactory extra) const
{
    if (!paranoid && !extra)
        return nullptr;
    const bool add_validator = paranoid;
    return [add_validator, extra = std::move(extra)](
               const RunKey &key) {
        std::vector<std::unique_ptr<stl::SimObserver>> observers;
        if (add_validator)
            observers.push_back(
                std::make_unique<analysis::ValidatingObserver>(
                    analysis::ValidatingObserver::Options{
                        .paranoid = true, .maxRecorded = 16}));
        if (extra) {
            auto more = extra(key);
            for (auto &observer : more)
                observers.push_back(std::move(observer));
        }
        return observers;
    };
}

SweepOptions
BenchCli::sweepOptions(ObserverFactory extra) const
{
    SweepOptions options;
    options.jobs = resolvedJobs();
    options.observerFactory = observerFactory(std::move(extra));

    // --convert-out exports the first workload's trace once it is
    // loaded, in the --trace-format (or extension-implied) format.
    // Benches that install their own onTrace hook must chain this
    // one (see cli.h); export failures warn rather than poison the
    // sweep — the replay results are still sound without the side
    // file.
    if (!convertOutPath.empty()) {
        const std::string out = convertOutPath;
        const trace::TraceFormat format = traceFormat;
        options.onTrace = [out, format](
                              std::size_t workload_index,
                              const trace::Trace &trace) {
            if (workload_index != 0)
                return;
            const Status written =
                trace::tryWriteTraceFile(out, trace, format);
            if (!written.ok())
                warn("--convert-out: " + written.message());
        };
    }

    // Arm telemetry for the run this options object configures.
    // Observability is strictly opt-in: without these flags the
    // enabled flag stays false and every instrument is a no-op.
    if (!metricsOutPath.empty() || !traceOutPath.empty())
        telemetry::setEnabled(true);
    if (!traceOutPath.empty())
        telemetry::setGlobalTraceWriter(&benchTraceWriter());
    return options;
}

void
BenchCli::emitReports(const SweepResult &sweep) const
{
    if (jsonPath)
        writeJsonFile(*jsonPath, sweep);
    if (csvPath)
        writeCsvFile(*csvPath, sweep);
    if (!metricsOutPath.empty())
        telemetry::writeMetricsFile(
            telemetry::Registry::global().snapshot(),
            metricsOutPath);
    if (!traceOutPath.empty())
        benchTraceWriter().writeFile(traceOutPath);
}

void
BenchCli::applyFiniteLogOverrides(
    stl::FiniteLogConfig &config) const
{
    if (logCapacityBytes != 0)
        config.capacityBytes = logCapacityBytes;
    if (segmentBytes != 0)
        config.segmentBytes = segmentBytes;
    if (cleanReserve != 0) {
        config.cleanReserveSegments = cleanReserve;
        // Keep the hysteresis valid: the target must exceed the
        // reserve, so follow a raised reserve upward.
        if (config.cleanTargetSegments <= cleanReserve)
            config.cleanTargetSegments = cleanReserve + 2;
    }
}

std::string
benchUsage(const std::string &name)
{
    return name +
           " [scale] [seed] [--jobs N|auto] [--json[=path]] "
           "[--csv[=path]] [--paranoid] "
           "[--metrics-out file] [--trace-out file] "
           "[--fault-rate R] [--bad-sector-seed N] "
           "[--max-open-zones N] [--error-log-cap N] "
           "[--log-capacity N] [--segment-bytes N] "
           "[--clean-reserve N] "
           "[--trace-format F] [--convert-out file] [--help]";
}

std::string
benchHelp(const std::string &name)
{
    return
        "usage: " + benchUsage(name) + "\n"
        "\n"
        "positional arguments:\n"
        "  scale                workload scale factor (> 0)\n"
        "  seed                 workload generator seed (>= 0)\n"
        "\n"
        "options:\n"
        "  --jobs N|auto        sweep worker threads; 'auto' = "
        "hardware concurrency\n"
        "  --json[=path]        write the JSON report (default "
        "'-' = stdout)\n"
        "  --csv[=path]         write the CSV report (default "
        "'-' = stdout)\n"
        "  --paranoid           replay under a paranoid "
        "validating observer\n"
        "  --metrics-out file   write a telemetry metrics "
        "snapshot after the sweep\n"
        "                       (.prom/.txt = Prometheus text, "
        "else JSON; '-' = stdout)\n"
        "  --trace-out file     write a Chrome trace_event JSON "
        "trace of the sweep\n"
        "  --fault-rate R       zoned-device media-fault rate in "
        "[0, 1] (0 = off)\n"
        "  --bad-sector-seed N  seed of the device's bad-sector "
        "map (>= 0)\n"
        "  --max-open-zones N   zoned-device open-zone limit "
        "[1, 65536]\n"
        "  --error-log-cap N    zoned-device read-error-log bound "
        "[1, 1048576]\n"
        "                       (entries past the cap are counted, "
        "not kept)\n"
        "  --log-capacity N     finite-log capacity override in "
        "bytes [1 MiB, 1 TiB]\n"
        "                       (0/unset = the bench default)\n"
        "  --segment-bytes N    finite-log segment size override "
        "in bytes [64 KiB, 1 GiB]\n"
        "  --clean-reserve N    finite-log cleaning reserve "
        "override in segments [1, 1024]\n"
        "  --trace-format F     format of trace files read or "
        "converted:\n"
        "                       auto, csv or lskc "
        "(default auto)\n"
        "  --convert-out file   export the first workload's trace "
        "to this path\n"
        "                       (format from the extension unless "
        "--trace-format is set)\n"
        "  --help               print this help and exit\n";
}

std::vector<std::string>
benchFlagNames()
{
    return {"--jobs",          "--json",
            "--csv",           "--paranoid",
            "--metrics-out",   "--trace-out",
            "--fault-rate",    "--bad-sector-seed",
            "--max-open-zones", "--error-log-cap",
            "--log-capacity",  "--segment-bytes",
            "--clean-reserve", "--trace-format",
            "--convert-out",   "--help"};
}

StatusOr<BenchCli>
tryParseBenchCli(int argc, char **argv, double default_scale)
{
    BenchCli cli;
    cli.profile.scale = default_scale;

    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];

        // Matches "--flag value" and "--flag=value"; a flag at the
        // end of the line yields an unset value, which the
        // consumer reports as missing.
        std::optional<std::string> value;
        auto matches = [&](const char *flag) {
            const std::size_t length = std::strlen(flag);
            if (arg == flag) {
                if (i + 1 < argc)
                    value = argv[++i];
                return true;
            }
            if (arg.size() > length &&
                arg.compare(0, length, flag) == 0 &&
                arg[length] == '=') {
                value = arg.substr(length + 1);
                return true;
            }
            return false;
        };

        if (arg == "--help" || arg == "-h") {
            cli.helpRequested = true;
            return cli;
        } else if (arg == "--paranoid") {
            cli.paranoid = true;
        } else if (arg == "--json") {
            cli.jsonPath = std::string("-");
        } else if (arg == "--csv") {
            cli.csvPath = std::string("-");
        } else if (matches("--json")) {
            cli.jsonPath = std::move(value);
        } else if (matches("--csv")) {
            cli.csvPath = std::move(value);
        } else if (matches("--jobs")) {
            if (!value)
                return invalidArgumentError(
                    "--jobs requires a value");
            if (*value == "auto") {
                cli.jobs = 0;
            } else {
                StatusOr<long long> jobs =
                    parseIntArg("--jobs", *value);
                if (!jobs.ok())
                    return jobs.status();
                if (jobs.value() < 1)
                    return invalidArgumentError(
                        "--jobs must be >= 1 (or 'auto'): got " +
                        *value);
                if (jobs.value() > 4096)
                    return invalidArgumentError(
                        "--jobs: implausible worker count " +
                        *value);
                cli.jobs = static_cast<int>(jobs.value());
            }
        } else if (matches("--metrics-out")) {
            if (!value || value->empty())
                return invalidArgumentError(
                    "--metrics-out requires a path");
            cli.metricsOutPath = std::move(*value);
        } else if (matches("--trace-out")) {
            if (!value || value->empty())
                return invalidArgumentError(
                    "--trace-out requires a path");
            cli.traceOutPath = std::move(*value);
        } else if (matches("--fault-rate")) {
            if (!value)
                return invalidArgumentError(
                    "--fault-rate requires a value");
            StatusOr<double> rate =
                parseDoubleArg("--fault-rate", *value);
            if (!rate.ok())
                return rate.status();
            if (rate.value() < 0.0 || rate.value() > 1.0)
                return invalidArgumentError(
                    "--fault-rate must be in [0, 1]: got " +
                    *value);
            cli.faultRate = rate.value();
        } else if (matches("--bad-sector-seed")) {
            if (!value)
                return invalidArgumentError(
                    "--bad-sector-seed requires a value");
            StatusOr<long long> seed =
                parseIntArg("--bad-sector-seed", *value);
            if (!seed.ok())
                return seed.status();
            if (seed.value() < 0)
                return invalidArgumentError(
                    "--bad-sector-seed must be >= 0: got " +
                    *value);
            cli.badSectorSeed =
                static_cast<std::uint64_t>(seed.value());
        } else if (matches("--max-open-zones")) {
            if (!value)
                return invalidArgumentError(
                    "--max-open-zones requires a value");
            StatusOr<long long> zones =
                parseIntArg("--max-open-zones", *value);
            if (!zones.ok())
                return zones.status();
            if (zones.value() < 1 || zones.value() > 65536)
                return invalidArgumentError(
                    "--max-open-zones must be in [1, 65536]: "
                    "got " +
                    *value);
            cli.maxOpenZones =
                static_cast<std::uint32_t>(zones.value());
        } else if (matches("--error-log-cap")) {
            if (!value)
                return invalidArgumentError(
                    "--error-log-cap requires a value");
            StatusOr<long long> cap =
                parseIntArg("--error-log-cap", *value);
            if (!cap.ok())
                return cap.status();
            if (cap.value() < 1 || cap.value() > 1048576)
                return invalidArgumentError(
                    "--error-log-cap must be in [1, 1048576]: "
                    "got " +
                    *value);
            cli.errorLogCap =
                static_cast<std::size_t>(cap.value());
        } else if (matches("--log-capacity")) {
            if (!value)
                return invalidArgumentError(
                    "--log-capacity requires a value");
            StatusOr<long long> capacity =
                parseIntArg("--log-capacity", *value);
            if (!capacity.ok())
                return capacity.status();
            if (capacity.value() <
                    static_cast<long long>(kMiB) ||
                capacity.value() >
                    static_cast<long long>(1024 * kGiB))
                return invalidArgumentError(
                    "--log-capacity must be in [1 MiB, 1 TiB] "
                    "bytes: got " +
                    *value);
            cli.logCapacityBytes =
                static_cast<std::uint64_t>(capacity.value());
        } else if (matches("--segment-bytes")) {
            if (!value)
                return invalidArgumentError(
                    "--segment-bytes requires a value");
            StatusOr<long long> segment =
                parseIntArg("--segment-bytes", *value);
            if (!segment.ok())
                return segment.status();
            if (segment.value() <
                    static_cast<long long>(64 * kKiB) ||
                segment.value() > static_cast<long long>(kGiB))
                return invalidArgumentError(
                    "--segment-bytes must be in [64 KiB, 1 GiB] "
                    "bytes: got " +
                    *value);
            cli.segmentBytes =
                static_cast<std::uint64_t>(segment.value());
        } else if (matches("--clean-reserve")) {
            if (!value)
                return invalidArgumentError(
                    "--clean-reserve requires a value");
            StatusOr<long long> reserve =
                parseIntArg("--clean-reserve", *value);
            if (!reserve.ok())
                return reserve.status();
            if (reserve.value() < 1 || reserve.value() > 1024)
                return invalidArgumentError(
                    "--clean-reserve must be in [1, 1024]: got " +
                    *value);
            cli.cleanReserve =
                static_cast<std::uint32_t>(reserve.value());
        } else if (matches("--trace-format")) {
            if (!value)
                return invalidArgumentError(
                    "--trace-format requires a value");
            StatusOr<trace::TraceFormat> format =
                trace::parseTraceFormat(*value);
            if (!format.ok())
                return format.status();
            cli.traceFormat = format.value();
        } else if (matches("--convert-out")) {
            if (!value || value->empty())
                return invalidArgumentError(
                    "--convert-out requires a path");
            cli.convertOutPath = std::move(*value);
        } else if (arg.rfind("--", 0) == 0) {
            return invalidArgumentError("unknown option: " + arg);
        } else if (positional == 0) {
            StatusOr<double> scale = parseDoubleArg("scale", arg);
            if (!scale.ok())
                return scale.status();
            if (scale.value() <= 0.0)
                return invalidArgumentError(
                    "scale must be > 0: got " + arg);
            cli.profile.scale = scale.value();
            ++positional;
        } else if (positional == 1) {
            StatusOr<long long> seed = parseIntArg("seed", arg);
            if (!seed.ok())
                return seed.status();
            if (seed.value() < 0)
                return invalidArgumentError(
                    "seed must be >= 0: got " + arg);
            cli.profile.seed =
                static_cast<std::uint64_t>(seed.value());
            ++positional;
        } else {
            return invalidArgumentError("unexpected argument: " +
                                        arg);
        }
    }
    return cli;
}

std::optional<BenchCli>
parseBenchCli(int argc, char **argv, const std::string &usage,
              double default_scale)
{
    StatusOr<BenchCli> cli =
        tryParseBenchCli(argc, argv, default_scale);
    if (!cli.ok()) {
        std::cerr << cli.status().message() << "\nusage: " << usage
                  << "\n";
        return std::nullopt;
    }
    if (cli.value().helpRequested) {
        // The usage string names the binary as "<name> [args...]";
        // reuse the leading word so help matches the invocation.
        std::cout << benchHelp(usage.substr(0, usage.find(' ')));
        std::exit(0);
    }
    return std::move(cli).value();
}

} // namespace logseek::sweep
