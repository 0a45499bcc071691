/**
 * @file
 * Parallel (workload × config) sweep execution.
 *
 * Every figure and ablation in the paper is a sweep: a set of
 * workloads replayed under a matrix of simulator configurations.
 * SweepRunner loads each workload exactly once — as an immutable
 * TraceSource shared read-only by the pool's workers, each cell
 * pulling records through its own cursor — replays every
 * (workload, config) cell with a fresh per-run engine and fresh
 * per-run observers (from a factory — observers are stateful and
 * not thread-safe, so they are never shared between runs), and
 * returns rows in deterministic (workload, config) order: the
 * results are byte-identical whatever the job count. A workload's
 * source is released when its last cell completes, and a load
 * starts only when no cell is queued, so at most `jobs` workloads
 * are loaded and unfinished at once: peak memory tracks the
 * workloads in flight, not the whole sweep.
 */

#ifndef LOGSEEK_SWEEP_SWEEP_RUNNER_H
#define LOGSEEK_SWEEP_SWEEP_RUNNER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stl/simulator.h"
#include "trace/input.h"
#include "trace/trace.h"
#include "util/status.h"
#include "workloads/profiles.h"

namespace logseek::sweep
{

/** One workload of a sweep: a name plus a one-shot trace loader. */
struct WorkloadSpec
{
    std::string name;

    /**
     * Produces the trace; called exactly once, on a pool worker.
     * Must be safe to call concurrently with other specs' loaders.
     * Ignored when loadSource is set.
     */
    std::function<trace::Trace()> load;

    /**
     * Produces a shareable TraceSource instead of an in-RAM Trace;
     * preferred over `load` when set. Also called exactly once, on
     * a pool worker; the runner shares the source across the
     * workload's cells and drops its references as cells complete,
     * so the source (trace memory or file mapping) is released
     * when the last dependent cell finishes — not at sweep end.
     */
    std::function<std::shared_ptr<const trace::TraceSource>()>
        loadSource;

    /** A named synthetic profile (workloads::makeWorkload). */
    static WorkloadSpec profile(const std::string &name,
                                const workloads::ProfileOptions &options);

    /**
     * A derived workload: load the named profile, then transform
     * it (e.g. elevator reordering for NCQ baselines).
     */
    static WorkloadSpec
    derived(const std::string &label, const std::string &profile_name,
            const workloads::ProfileOptions &options,
            std::function<trace::Trace(const trace::Trace &)> transform);

    /**
     * A workload backed by any TraceSource — an mmap'd LSKC file
     * (trace::LskcSource) or a streaming generator
     * (workloads::StreamSource).
     */
    static WorkloadSpec
    source(std::string name,
           std::function<std::shared_ptr<const trace::TraceSource>()>
               load_source);
};

/** One column of a sweep: a label plus a config (factory). */
struct ConfigSpec
{
    std::string label;

    /**
     * Builds the SimConfig for one workload. Receives the loaded
     * trace so configs can be sized from trace properties (e.g. a
     * finite log scaled to the written volume). Must be pure.
     * Only usable on RAM-backed workloads; makeSource wins when
     * both are set.
     */
    std::function<stl::SimConfig(const trace::Trace &)> make;

    /**
     * Source-aware factory: sees the workload's TraceSource, so it
     * also works for streamed/mmap'd workloads that never
     * materialize a Trace. Must be pure.
     */
    std::function<stl::SimConfig(const trace::TraceSource &)>
        makeSource;

    /** A trace-independent configuration. */
    static ConfigSpec fixed(std::string label, stl::SimConfig config);

    /** A configuration computed per workload from its trace. */
    static ConfigSpec
    deferred(std::string label,
             std::function<stl::SimConfig(const trace::Trace &)> make);

    /** A configuration computed per workload from its source. */
    static ConfigSpec deferredSource(
        std::string label,
        std::function<stl::SimConfig(const trace::TraceSource &)>
            make);
};

/** Identity of one run within the sweep grid. */
struct RunKey
{
    std::size_t workloadIndex = 0;
    std::size_t configIndex = 0;
    std::string workload;
    std::string configLabel;
};

/**
 * Factory producing the observers for one run. Called once per
 * run, on the worker that executes it; the returned observers are
 * registered for that run only and handed back (with their final
 * state) on the run's row. May be empty.
 */
using ObserverFactory =
    std::function<std::vector<std::unique_ptr<stl::SimObserver>>(
        const RunKey &)>;

/** One (workload, config) cell of a completed sweep. */
struct RunRow
{
    RunKey key;

    /**
     * ok() if the run completed; otherwise the error the replay or
     * the workload's loader raised. Each cell runs once: a replay
     * is deterministic, so running it again would fail the same
     * way.
     */
    Status status;

    /** Aggregate replay results; valid only when status is ok. */
    stl::SimResult result;

    /** Observers created for this run, in factory order, with
     *  their post-run state. */
    std::vector<std::unique_ptr<stl::SimObserver>> observers;

    /** Wall-clock of the replay (excludes trace loading). */
    double wallSec = 0.0;

    /** Requests replayed (the source's size hint when it has one,
     *  otherwise the completed replay's read + write count). */
    std::uint64_t ops = 0;

    double
    opsPerSec() const
    {
        return wallSec > 0.0 ? static_cast<double>(ops) / wallSec
                             : 0.0;
    }
};

/**
 * First observer of the given dynamic type on a row, or null.
 * Benches use this to recover their per-run observers regardless
 * of what else (e.g. a --paranoid validator) the factory added.
 */
template <class Observer>
Observer *
findObserver(const RunRow &row)
{
    for (const auto &observer : row.observers)
        if (auto *typed = dynamic_cast<Observer *>(observer.get()))
            return typed;
    return nullptr;
}

/** Whole-sweep telemetry. */
struct SweepTelemetry
{
    /** End-to-end wall-clock including loading (seconds). */
    double wallSec = 0.0;

    /** Sum of per-run replay wall-clock (seconds). */
    double replaySec = 0.0;

    std::uint64_t runs = 0;
    std::uint64_t failedRuns = 0;
    std::uint64_t ops = 0;
    int jobs = 1;

    /** Aggregate replay throughput over the sweep's wall-clock. */
    double
    opsPerSec() const
    {
        return wallSec > 0.0 ? static_cast<double>(ops) / wallSec
                             : 0.0;
    }
};

/** All rows of a completed sweep, in (workload, config) order. */
struct SweepResult
{
    std::vector<std::string> workloads;
    std::vector<std::string> configs;
    std::vector<RunRow> rows;
    SweepTelemetry telemetry;

    /** The cell for workload w, config c. */
    const RunRow &row(std::size_t w, std::size_t c) const;

    /**
     * Seek amplification of cell (w, c) against cell
     * (w, baseline_c); nullopt when either run failed or the
     * baseline had no seeks.
     */
    std::optional<double> safVs(std::size_t w, std::size_t c,
                                std::size_t baseline_c = 0) const;
};

/** Execution options. */
struct SweepOptions
{
    /** Worker threads; values < 1 are clamped to 1. */
    int jobs = 1;

    /** Per-run observer factory; may be null. */
    ObserverFactory observerFactory;

    /**
     * Called on a pool worker right after a workload's trace is
     * loaded, before any of its runs. Different workloads may be
     * in flight concurrently; the hook must only touch per-
     * workload state (e.g. its own slot of a pre-sized vector).
     * Benches that analyze traces without replaying use this as
     * the work body, with an empty config list. Only fires for
     * RAM-backed workloads (TraceSource::memoryTrace() non-null);
     * streamed workloads never materialize a Trace to hand it.
     */
    std::function<void(std::size_t workload_index,
                       const trace::Trace &trace)>
        onTrace;

    /**
     * Test/progress hook called on the worker right after a cell
     * finished, whether it succeeded or failed. May run
     * concurrently with itself.
     */
    std::function<void(const RunRow &row)> onCellComplete;
};

/**
 * Runs a (workload × config) sweep on a TaskPool. Each trace is
 * loaded once and shared read-only; each cell gets a fresh
 * Simulator and fresh observers. Row order — and every simulation
 * field in it — is independent of the job count.
 */
class SweepRunner
{
  public:
    SweepRunner(std::vector<WorkloadSpec> workloads,
                std::vector<ConfigSpec> configs,
                SweepOptions options = {});

    /** Execute the sweep; blocks until every cell completed. */
    SweepResult run();

  private:
    /** Load workload w's trace and run the onTrace hook on it. */
    std::shared_ptr<const trace::TraceSource>
    loadWorkload(std::size_t w) const;

    /** Replay one cell of a loaded workload into `row`. */
    Status replayCell(const trace::TraceSource &source,
                      RunRow &row) const;

    std::vector<WorkloadSpec> workloads_;
    std::vector<ConfigSpec> configs_;
    SweepOptions options_;
};

} // namespace logseek::sweep

#endif // LOGSEEK_SWEEP_SWEEP_RUNNER_H
