/**
 * @file
 * Shared declarations of the perfbench binary: the workload table,
 * set-up, timed sweep passes, the per-layer ledger and the output.
 *
 * A workload is a fixed list of (profile, config) cells. Set-up
 * generates the profiles (and, for write-churn, writes and opens
 * their LSKC files); a pass replays every cell once through
 * SweepRunner; the traced run additionally replays each layer's
 * input stream through that layer's public API alone.
 */

#ifndef LOGSEEK_PERFBENCH_BENCH_H
#define LOGSEEK_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stl/simulator.h"
#include "trace/input.h"
#include "util/status.h"

namespace perfbench
{

using namespace logseek;

/** The configurations cells run; names are the metric suffixes. */
enum class Cfg
{
    Nols,
    Ls,
    LsDefrag,
    LsPrefetch,
    LsCache,
    LsAll,
    FlGreedy,
    FlCb2Zoned,
};

/** Metric-name key of a config ("nols", "ls_cache", ...). */
const char *cfgName(Cfg cfg);

/** Synthetic-profile scale every workload generates at. */
inline constexpr double kScale = 0.01;

/** Log utilization the finite-log configs are sized for. */
inline constexpr unsigned kFiniteLogUtilPct = 90;

/** One benchmark workload: its cells and how they are driven. */
struct WorkloadDef
{
    std::string name;
    std::vector<std::string> profiles;
    std::vector<Cfg> configs;

    /** Cells run on nproc workers when true, on one otherwise. */
    bool parallel = false;

    /** Replay from LSKC files written during set-up. */
    bool lskc = false;
};

/** The three workloads, in documentation order. */
const std::vector<WorkloadDef> &workloadDefs();

/** The named workload, or null. */
const WorkloadDef *findWorkload(const std::string &name);

/** One generated profile, ready to replay. */
struct Profile
{
    std::string name;
    std::shared_ptr<const trace::TraceSource> source;
    std::uint64_t records = 0;

    /** Finite-log geometry (sizedFiniteLog); set only when the
     *  workload runs a finite-log config. */
    stl::FiniteLogConfig finiteLog;

    /** makeWorkload wall time. */
    double genSec = 0.0;
};

/** A workload after set-up. */
struct Prepared
{
    const WorkloadDef *def = nullptr;
    std::vector<Profile> profiles;

    /** Workers a pass uses. */
    int jobs = 1;
};

/**
 * Set the workload up: generate every profile, size the finite
 * logs and, for LSKC workloads, write each trace under `dir` and
 * replace its in-RAM source by the opened file.
 */
StatusOr<Prepared> prepare(const WorkloadDef &def, std::uint64_t seed,
                           const std::string &dir);

/**
 * A finite log holding the records' write footprint at
 * kFiniteLogUtilPct: the geometry gc_ablation uses (segments of
 * about capacity/128, 64 KiB granular and clamped to [64 KiB,
 * 4 MiB], an 8 MiB floor, capacity rounded up to whole segments).
 */
stl::FiniteLogConfig sizedFiniteLog(const trace::Trace &trace);
stl::FiniteLogConfig
sizedFiniteLog(const std::vector<trace::IoRecord> &records);

/** The simulator configuration of one cell. */
stl::SimConfig makeConfig(Cfg cfg, const Profile &profile);

/** Seconds on the benchmark's monotonic clock since process start. */
double nowSec();

/** A closed interval on the nowSec() clock. */
struct Span
{
    std::string name;
    std::string category;
    double startSec = 0.0;
    double endSec = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t tid = 0;
};

/** In-memory span sink; ids are assigned in creation order. */
class SpanLog
{
  public:
    /** A fresh span id (never 0, which means "no parent"). */
    std::uint64_t newId() { return ++lastId_; }

    void add(Span span) { spans_.push_back(std::move(span)); }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::uint64_t lastId_ = 0;
    std::vector<Span> spans_;
};

/** One executed cell of a pass. */
struct CellRun
{
    std::size_t profile = 0;
    Cfg cfg = Cfg::Ls;
    Status status;
    stl::SimResult result;

    /** Simulator::tryRun wall time (RunRow::wallSec). */
    double runSec = 0.0;
    std::uint64_t records = 0;

    /**
     * runSec cut at every kWindowEvents-th replayed request: first
     * the part outside the stamped windows (engine set-up, the first
     * and the last requests), then each window in trace order. The
     * parts sum to runSec, and window k does the same work in every
     * pass of a run.
     */
    std::vector<double> windowSec;
};

/** Requests per timing window of a cell (CellRun::windowSec). */
inline constexpr std::uint64_t kWindowEvents = 4096;

/** What a pass attaches to SweepRunner. */
struct PassHooks
{
    /** Register a paranoid ValidatingObserver on every cell. */
    bool validate = false;

    /** Record cell spans under `parent` into `spans`. */
    SpanLog *spans = nullptr;
    std::uint64_t parent = 0;
};

/** One replay of every cell of the workload. */
struct PassResult
{
    double wallSec = 0.0;
    std::vector<CellRun> cells;
};

/** Replay every cell once through SweepRunner. */
PassResult runPass(const Prepared &prepared, const PassHooks &hooks);

/** Bitwise digest of every SimResult field, as 16 hex digits. */
std::string digest(const stl::SimResult &result);

/** "profile/config", the key of a cell in digests and reports. */
std::string cellKey(const Prepared &prepared, const CellRun &cell);

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Result of the traced run's per-layer ledger. */
struct LedgerResult
{
    std::vector<Metric> metrics;

    /** Cross-check mismatches (each also printed to stderr). */
    std::uint64_t mismatches = 0;

    /** Standalone replays whose counts were compared. */
    std::uint64_t checks = 0;
};

/**
 * Replay each layer's input stream through that layer alone, per
 * profile, and reconcile the layer times against Simulator::run.
 * `reference` holds the validated result of every cell of the
 * workload, keyed by cellKey.
 */
LedgerResult runLedger(const Prepared &prepared,
                       const std::map<std::string, stl::SimResult>
                           &reference,
                       const std::string &dir, SpanLog &spans,
                       std::uint64_t parent);

/** Host fingerprint: nproc, CPU model, compiler and build type. */
std::map<std::string, std::string> hostInfo();

/** Peak resident set of this process, in MiB. */
double peakRssMiB();

/** Write `spans` as Chrome trace_event JSON; false on I/O error. */
bool writeSpans(const std::string &path, const SpanLog &spans,
                const std::map<std::string, std::string> &host);

/** `{"name": {"value": v, "unit": "u"}, ...}` for the result line. */
std::string jsonMetrics(const std::vector<Metric> &metrics);

/** Write the run's report (host, seed, error rate, metrics). */
bool writeReport(const std::string &path, const std::string &workload,
                 std::uint64_t seed, int trace,
                 const std::map<std::string, std::string> &host,
                 double error_rate, const std::vector<Metric> &metrics);

/** Median of `values` (0 when empty). */
double median(std::vector<double> values);

/** Format a double with every significant digit. */
std::string formatDouble(double value);

} // namespace perfbench

#endif // LOGSEEK_PERFBENCH_BENCH_H
