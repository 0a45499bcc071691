/**
 * @file
 * perfbench: the repository's benchmark. One workload per process.
 *
 *   perfbench --workload fig11|hot-reread|write-churn [--seed N]
 *             [--seconds S] [--trace 0|1] [--digests PATH]
 *             [--write-digests PATH] [--out DIR]
 *
 * Set-up (profile generation, finite-log sizing, LSKC write+open)
 * repeats at least kSetupReps times and for kSetupBudgetSec seconds, and
 * setup_s is the median. One untimed pass under a paranoid
 * ValidatingObserver fixes every cell's SimResult digest, which must
 * equal the digest recorded for the default seed. Then:
 *
 *  --trace 0: timed passes over all cells until S seconds have
 *             elapsed. A cell's time sums, over its timing windows,
 *             each window's fastest time across the passes; wall_s
 *             and rps.* are built from those (fig11's wall_s is the
 *             median pass makespan).
 *  --trace 1: untraced, telemetry-on and span-traced passes (two
 *             rounds), then the per-layer ledger (layers.cc); spans
 *             go to DIR/<workload>-spans.json.
 *
 * Every repetition must reproduce the validated digests. Human-
 * readable lines go to stdout first; the last stdout line is one
 * JSON object {correct, attempted, failed, metrics}. A report with
 * the host fingerprint goes to DIR/<workload>-report.json. Exit
 * status is 0 only when every check passed.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "bench.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

namespace
{

using namespace perfbench;

/** The default seed; digests.txt must hold every cell's digest for it. */
constexpr std::uint64_t kDefaultSeed = 42;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 30.0;
    int trace = 0;
    std::string digests = "perfbench/digests.txt";
    std::string writeDigests;
    std::string out = ".bench_out";
};

/**
 * Set-up repeats at least kSetupReps times and until kSetupBudgetSec
 * have passed; setup_s is the median.
 */
constexpr std::size_t kSetupReps = 9;
constexpr double kSetupBudgetSec = 3.0;

constexpr const char *kUsage =
    "usage: perfbench --workload fig11|hot-reread|write-churn "
    "[--seed N] [--seconds S] [--trace 0|1] [--digests PATH] "
    "[--write-digests PATH] [--out DIR]\n";

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return std::nullopt;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value);
            else if (flag == "--digests")
                args.digests = value;
            else if (flag == "--write-digests")
                args.writeDigests = value;
            else if (flag == "--out")
                args.out = value;
            else
                return std::nullopt;
        } catch (const std::exception &) {
            return std::nullopt;
        }
    }
    if (args.workload.empty() || args.seconds <= 0.0 ||
        (args.trace != 0 && args.trace != 1))
        return std::nullopt;
    return args;
}

/** Recorded digests: the seed they hold for and cell -> digest. */
struct Digests
{
    std::uint64_t seed = 0;
    std::map<std::string, std::string> cells;
};

/**
 * Read a digests file written by writeDigests(): a "seed N" line,
 * then one "profile/config <16 hex>" line per cell. Null when the
 * file is missing or malformed.
 */
std::optional<Digests>
readDigests(const std::string &path)
{
    std::ifstream file(path);
    Digests out;
    std::string word;
    if (!(file >> word >> out.seed) || word != "seed")
        return std::nullopt;
    std::string key;
    std::string value;
    while (file >> key) {
        if (!(file >> value) || value.size() != 16)
            return std::nullopt;
        out.cells[key] = value;
    }
    if (!file.eof())
        return std::nullopt;
    return out;
}

bool
writeDigests(const std::string &path, const Digests &digests)
{
    std::ofstream out(path);
    out << "seed " << digests.seed << "\n";
    for (const auto &[key, value] : digests.cells)
        out << key << " " << value << "\n";
    return static_cast<bool>(out);
}

/** Cell tallies shared by every pass of the run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, stl::SimResult> reference;

    /** Count one pass; every cell must reproduce the reference. */
    void
    count(const Prepared &prepared, const PassResult &pass)
    {
        for (const CellRun &cell : pass.cells) {
            ++attempted;
            const std::string key = cellKey(prepared, cell);
            if (!cell.status.ok()) {
                ++failed;
                std::cerr << "perfbench: cell " << key
                          << " failed: " << cell.status.toString() << "\n";
                continue;
            }
            const auto it = reference.find(key);
            if (it == reference.end()) {
                reference.emplace(key, cell.result);
            } else if (digest(it->second) != digest(cell.result)) {
                ++failed;
                std::cerr << "perfbench: cell " << key
                          << " result changed between repetitions\n";
            }
        }
    }
};

/**
 * Simulator::run time of cell `i`: the sum over its timing windows
 * of each window's fastest time across the passes. On a shared host,
 * contention for the caches and memory slows stretches of a few
 * hundred milliseconds and longer by up to 2x, and never speeds one
 * up; a window does the same work in every pass, so its fastest time
 * is the closest to its own cost.
 */
double
fastestCellSec(const std::vector<PassResult> &passes, std::size_t i)
{
    std::vector<double> fastest = passes.front().cells[i].windowSec;
    for (const PassResult &pass : passes) {
        const std::vector<double> &windows = pass.cells[i].windowSec;
        if (windows.size() != fastest.size())
            throw FatalError("perfbench: cell " + std::to_string(i) +
                             " replayed a different number of requests");
        for (std::size_t k = 0; k < windows.size(); ++k)
            fastest[k] = std::min(fastest[k], windows[k]);
    }
    double sec = 0.0;
    for (const double window : fastest)
        sec += window;
    return sec;
}

/**
 * Sum over every cell of its fastestCellSec: the time of one serial
 * pass.
 */
double
summedCellSec(const std::vector<PassResult> &passes)
{
    double sec = 0.0;
    for (std::size_t i = 0; i < passes.front().cells.size(); ++i)
        sec += fastestCellSec(passes, i);
    return sec;
}

/**
 * Records per second of the cells `pick` selects: their records over
 * the sum of each cell's fastest Simulator::run time across passes.
 */
template <class Pick>
double
recordsPerSec(const std::vector<PassResult> &passes, Pick pick)
{
    double sec = 0.0;
    double records = 0.0;
    for (std::size_t i = 0; i < passes.front().cells.size(); ++i) {
        const CellRun &cell = passes.front().cells[i];
        if (!pick(cell.cfg))
            continue;
        sec += fastestCellSec(passes, i);
        records += static_cast<double>(cell.records);
    }
    return sec > 0.0 ? records / sec : 0.0;
}

double
busyFraction(const PassResult &pass, int jobs)
{
    double busy = 0.0;
    for (const CellRun &cell : pass.cells)
        busy += cell.runSec;
    return busy / (pass.wallSec * jobs);
}

double
longestCell(const PassResult &pass)
{
    double longest = 0.0;
    for (const CellRun &cell : pass.cells)
        longest = std::max(longest, cell.runSec);
    return longest;
}

void
printMetric(const Metric &metric)
{
    std::cout << "  " << metric.name << " = " << formatDouble(metric.value)
              << " " << metric.unit << "\n";
}

int
run(const Args &args)
{
    const WorkloadDef *def = findWorkload(args.workload);
    if (def == nullptr) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n"
                  << kUsage;
        return 2;
    }
    const std::string lskc_dir = args.out + "/lskc-" + def->name;
    std::filesystem::create_directories(lskc_dir);
    const auto host = hostInfo();

    std::cout << "perfbench workload=" << def->name
              << " seed=" << args.seed << " scale=" << kScale
              << " trace=" << args.trace << "\nhost:";
    for (const auto &[key, value] : host)
        std::cout << " " << key << "=\"" << value << "\"";
    std::cout << "\n";

    // Set-up, several times; the last one is kept.
    std::vector<double> setup_times;
    std::optional<Prepared> prepared;
    const double setup_deadline = nowSec() + kSetupBudgetSec;
    while (setup_times.size() < kSetupReps || nowSec() < setup_deadline) {
        prepared.reset();
        const double start = nowSec();
        StatusOr<Prepared> p = prepare(*def, args.seed, lskc_dir);
        if (!p.ok()) {
            std::cerr << "perfbench: set-up failed: "
                      << p.status().toString() << "\n";
            return 1;
        }
        setup_times.push_back(nowSec() - start);
        prepared = std::move(p).value();
    }
    std::uint64_t records_per_pass = 0;
    for (const Profile &profile : prepared->profiles)
        records_per_pass += profile.records * def->configs.size();
    std::cout << "cells=" << prepared->profiles.size() * def->configs.size()
              << " records_per_pass=" << records_per_pass
              << " jobs=" << prepared->jobs << "\n";

    // One untimed validation pass fixes the reference results.
    Tally tally;
    tally.count(*prepared, runPass(*prepared, {.validate = true}));
    // Recording replaces the digests instead of checking them. At the
    // default seed the digests must be there; at another seed they
    // are checked only if they were recorded for it.
    if (args.writeDigests.empty()) {
        const std::optional<Digests> recorded = readDigests(args.digests);
        if (recorded && recorded->seed == args.seed) {
            for (const auto &[key, result] : tally.reference) {
                const auto it = recorded->cells.find(key);
                if (it == recorded->cells.end() ||
                    it->second != digest(result)) {
                    ++tally.failed;
                    std::cerr << "perfbench: cell " << key
                              << " does not match the recorded digest\n";
                }
            }
        } else if (args.seed == kDefaultSeed) {
            ++tally.failed;
            std::cerr << "perfbench: " << args.digests
                      << " is unreadable or holds no digests for seed "
                      << args.seed << "\n";
        }
    } else {
        Digests updated =
            readDigests(args.writeDigests).value_or(Digests{});
        if (updated.seed != args.seed)
            updated.cells.clear();
        updated.seed = args.seed;
        for (const auto &[key, result] : tally.reference)
            updated.cells[key] = digest(result);
        if (!writeDigests(args.writeDigests, updated)) {
            std::cerr << "perfbench: cannot write " << args.writeDigests
                      << "\n";
            return 1;
        }
    }

    std::vector<Metric> metrics;
    if (args.trace == 0) {
        std::vector<PassResult> passes;
        const double deadline = nowSec() + args.seconds;
        while (passes.size() < 3 || nowSec() < deadline) {
            passes.push_back(runPass(*prepared, {}));
            tally.count(*prepared, passes.back());
        }
        std::vector<double> wall;
        for (const PassResult &pass : passes)
            wall.push_back(pass.wallSec);
        metrics = {
            {"setup_s", "s", median(setup_times)},
            {"wall_s", "s",
             prepared->jobs > 1 ? median(wall) : summedCellSec(passes)},
            {"rps.ls", "records/s",
             recordsPerSec(passes, [](Cfg c) { return c == Cfg::Ls; })},
            {"rps.non_ls", "records/s",
             recordsPerSec(passes, [](Cfg c) { return c != Cfg::Ls; })},
            {"rss_peak_mb", "MiB", peakRssMiB()},
        };
        std::cout << "set-up s:";
        for (const double t : setup_times)
            std::cout << " " << t;
        std::cout << "\npasses=" << passes.size() << " wall s:";
        for (const double w : wall)
            std::cout << " " << w;
        std::cout << "\nper-config rps (records / summed per-cell fastest "
                     "Simulator::run time):\n";
        for (const Cfg cfg : def->configs)
            printMetric({std::string("rps.") + cfgName(cfg), "records/s",
                         recordsPerSec(passes,
                                       [cfg](Cfg c) { return c == cfg; })});
    } else {
        SpanLog spans;
        const std::uint64_t root = spans.newId();
        const double root_start = nowSec();
        std::vector<double> plain;
        std::vector<double> telem;
        std::vector<double> traced;
        std::vector<double> busy;
        std::vector<double> longest;
        for (int round = 0; round < 2; ++round) {
            PassResult pass = runPass(*prepared, {});
            tally.count(*prepared, pass);
            plain.push_back(pass.wallSec);
            busy.push_back(busyFraction(pass, prepared->jobs));
            longest.push_back(longestCell(pass));

            telemetry::setEnabled(true);
            pass = runPass(*prepared, {});
            telemetry::setEnabled(false);
            tally.count(*prepared, pass);
            telem.push_back(pass.wallSec);

            const std::uint64_t pass_span = spans.newId();
            const double start = nowSec();
            pass = runPass(*prepared, {.spans = &spans, .parent = pass_span});
            spans.add({"pass:traced", "pass", start, nowSec(), pass_span,
                       root, 0});
            tally.count(*prepared, pass);
            traced.push_back(pass.wallSec);
        }

        const std::uint64_t ledger_span = spans.newId();
        const double ledger_start = nowSec();
        const LedgerResult ledger = runLedger(
            *prepared, tally.reference, lskc_dir, spans, ledger_span);
        spans.add({"ledger", "ledger", ledger_start, nowSec(), ledger_span,
                   root, 0});
        spans.add({"perfbench:" + def->name, "run", root_start, nowSec(),
                   root, 0, 0});
        tally.attempted += ledger.checks;
        tally.failed += ledger.mismatches;

        metrics = ledger.metrics;
        metrics.push_back({"sweep.busy_frac", "fraction", median(busy)});
        metrics.push_back({"sweep.longest_cell_s", "s", median(longest)});
        metrics.push_back({"telemetry.overhead_ratio", "ratio",
                           median(telem) / median(plain)});
        metrics.push_back({"tracing.overhead_ratio", "ratio",
                           median(traced) / median(plain)});
        std::cout << "standalone cross-checks=" << ledger.checks
                  << " mismatches=" << ledger.mismatches << "\n";

        const std::string span_path =
            args.out + "/" + def->name + "-spans.json";
        if (!writeSpans(span_path, spans, host)) {
            std::cerr << "perfbench: cannot write " << span_path << "\n";
            ++tally.failed;
        } else {
            std::cout << "spans: " << span_path << "\n";
        }
    }
    std::filesystem::remove_all(lskc_dir);

    for (const Metric &metric : metrics) {
        if (!std::isfinite(metric.value)) {
            std::cerr << "perfbench: metric " << metric.name
                      << " is not finite\n";
            ++tally.failed;
        }
    }
    const bool correct = tally.failed == 0;
    const double error_rate = static_cast<double>(tally.failed) /
                              static_cast<double>(tally.attempted);
    std::cout << (args.trace == 0 ? "end-to-end" : "per-layer")
              << " metrics:\n";
    for (const Metric &metric : metrics)
        printMetric(metric);
    printMetric({"error_rate", "fraction", error_rate});

    const std::string report_path =
        args.out + "/" + def->name + "-report.json";
    if (!writeReport(report_path, def->name, args.seed, args.trace, host,
                     error_rate, metrics))
        std::cerr << "perfbench: cannot write " << report_path << "\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << jsonMetrics(metrics) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Args> args = parseArgs(argc, argv);
    if (!args) {
        std::cerr << kUsage;
        return 2;
    }
    try {
        return run(*args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
