#include "sweep_runner.h"

#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "sweep/task_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_writer.h"
#include "util/logging.h"

namespace logseek::sweep
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Run `body` (returning a Status) and turn anything it throws into
 * the matching Status, so one bad cell or trace fails its own rows
 * and never the sweep. Exceptions from outside logseek's error
 * types are Internal.
 */
template <class Body>
Status
captureStatus(Body &&body)
{
    try {
        return body();
    } catch (const StatusError &e) {
        return e.status();
    } catch (const PanicError &e) {
        return internalError(e.what());
    } catch (const FatalError &e) {
        return invalidArgumentError(e.what());
    } catch (const std::exception &e) {
        return internalError(e.what());
    } catch (...) {
        return internalError("non-standard exception");
    }
}

} // namespace

WorkloadSpec
WorkloadSpec::profile(const std::string &name,
                      const workloads::ProfileOptions &options)
{
    return {name,
            [name, options] {
                return workloads::makeWorkload(name, options);
            },
            nullptr};
}

WorkloadSpec
WorkloadSpec::derived(
    const std::string &label, const std::string &profile_name,
    const workloads::ProfileOptions &options,
    std::function<trace::Trace(const trace::Trace &)> transform)
{
    return {label,
            [profile_name, options,
             transform = std::move(transform)] {
                trace::Trace out = transform(
                    workloads::makeWorkload(profile_name, options));
                return out;
            },
            nullptr};
}

WorkloadSpec
WorkloadSpec::source(
    std::string name,
    std::function<std::shared_ptr<const trace::TraceSource>()>
        load_source)
{
    return {std::move(name), nullptr, std::move(load_source)};
}

ConfigSpec
ConfigSpec::fixed(std::string label, stl::SimConfig config)
{
    return {std::move(label),
            [config](const trace::Trace &) { return config; },
            [config = std::move(config)](
                const trace::TraceSource &) { return config; }};
}

ConfigSpec
ConfigSpec::deferred(
    std::string label,
    std::function<stl::SimConfig(const trace::Trace &)> make)
{
    return {std::move(label), std::move(make), nullptr};
}

ConfigSpec
ConfigSpec::deferredSource(
    std::string label,
    std::function<stl::SimConfig(const trace::TraceSource &)> make)
{
    return {std::move(label), nullptr, std::move(make)};
}

const RunRow &
SweepResult::row(std::size_t w, std::size_t c) const
{
    panicIf(w >= workloads.size() || c >= configs.size(),
            "SweepResult::row: cell out of range");
    return rows[w * configs.size() + c];
}

std::optional<double>
SweepResult::safVs(std::size_t w, std::size_t c,
                   std::size_t baseline_c) const
{
    const RunRow &baseline = row(w, baseline_c);
    const RunRow &cell = row(w, c);
    if (!baseline.status.ok() || !cell.status.ok())
        return std::nullopt;
    return stl::seekAmplification(baseline.result, cell.result);
}

SweepRunner::SweepRunner(std::vector<WorkloadSpec> workloads,
                         std::vector<ConfigSpec> configs,
                         SweepOptions options)
    : workloads_(std::move(workloads)),
      configs_(std::move(configs)), options_(std::move(options))
{
}

SweepResult
SweepRunner::run()
{
    const std::size_t workload_count = workloads_.size();
    const std::size_t config_count = configs_.size();

    SweepResult out;
    out.workloads.reserve(workload_count);
    for (const auto &workload : workloads_)
        out.workloads.push_back(workload.name);
    out.configs.reserve(config_count);
    for (const auto &config : configs_)
        out.configs.push_back(config.label);

    // Rows are pre-sized so every task writes only its own slot;
    // the final order is the grid order regardless of which worker
    // finishes when.
    out.rows.resize(workload_count * config_count);
    for (std::size_t w = 0; w < workload_count; ++w)
        for (std::size_t c = 0; c < config_count; ++c)
            out.rows[w * config_count + c].key = {
                w, c, workloads_[w].name, configs_[c].label};

    const auto start = std::chrono::steady_clock::now();
    const int jobs = options_.jobs < 1 ? 1 : options_.jobs;
    {
        TaskPool pool(static_cast<unsigned>(jobs));

        auto finish_cell = [this](RunRow &row, Status status) {
            row.status = std::move(status);
            if (options_.onCellComplete)
                options_.onCellComplete(row);
        };

        auto run_cell = [this, finish_cell](
                            RunRow &row,
                            const trace::TraceSource &source) {
            row.ops = source.sizeHint().value_or(0);
            Status status;
            {
                // One trace span per cell, tagged with the cell
                // coordinates.
                telemetry::ScopedSpan span(
                    "cell:" + row.key.workload + "/" +
                        row.key.configLabel,
                    "sweep-cell");
                span.arg("workload", row.key.workload);
                span.arg("config", row.key.configLabel);
                status = captureStatus(
                    [&] { return replayCell(source, row); });
            }
            finish_cell(row, std::move(status));
        };

        for (std::size_t w = 0; w < workload_count; ++w) {
            pool.submit([this, &out, &pool, run_cell, finish_cell,
                         w, config_count] {
                std::shared_ptr<const trace::TraceSource> source;
                Status status;
                {
                    telemetry::ScopedSpan span(
                        "load:" + workloads_[w].name, "sweep-load");
                    span.arg("workload", workloads_[w].name);
                    status = captureStatus([&] {
                        source = loadWorkload(w);
                        return Status();
                    });
                }
                if (!status.ok()) {
                    // The whole workload is unusable; finish its
                    // cells with the load failure.
                    for (std::size_t c = 0; c < config_count; ++c)
                        finish_cell(out.rows[w * config_count + c],
                                    status);
                    return;
                }
                // Fan the loaded source out into one task per
                // config. Submitted from a worker, they go to the
                // front of the pool's queue, ahead of every load
                // still waiting. Each task holds one shared_ptr
                // reference, so the source — the trace memory or
                // the file mapping — is released the moment the
                // workload's last cell completes, not at sweep end.
                for (std::size_t c = 0; c < config_count; ++c)
                    pool.submit(
                        [run_cell,
                         &row = out.rows[w * config_count + c],
                         source] { run_cell(row, *source); });
            });
        }

        pool.wait();
    }

    out.telemetry.wallSec = secondsSince(start);
    out.telemetry.jobs = jobs;
    out.telemetry.runs = out.rows.size();
    auto &registry = telemetry::Registry::global();
    telemetry::LatencyHistogram &cell_latency =
        registry.histogram("sweep_cell_replay_latency_ns");
    for (const RunRow &row : out.rows) {
        registry
            .counter("sweep_cells_total",
                     row.status.ok() ? "outcome=\"OK\""
                                     : "outcome=\"FAILED\"")
            .add();
        if (row.wallSec > 0.0)
            cell_latency.record(
                static_cast<std::uint64_t>(row.wallSec * 1e9));
        out.telemetry.replaySec += row.wallSec;
        out.telemetry.ops += row.ops;
        if (!row.status.ok())
            ++out.telemetry.failedRuns;
    }
    return out;
}

std::shared_ptr<const trace::TraceSource>
SweepRunner::loadWorkload(std::size_t w) const
{
    const WorkloadSpec &spec = workloads_[w];
    std::shared_ptr<const trace::TraceSource> source;
    if (spec.loadSource)
        source = spec.loadSource();
    else
        source = std::make_shared<const trace::InMemoryTraceSource>(
            spec.load());
    if (source == nullptr)
        throw FatalError("workload '" + spec.name +
                         "': loadSource returned null");
    if (options_.onTrace) {
        const trace::Trace *memory = source->memoryTrace();
        if (memory != nullptr)
            options_.onTrace(w, *memory);
    }
    return source;
}

Status
SweepRunner::replayCell(const trace::TraceSource &source,
                        RunRow &row) const
{
    const ConfigSpec &spec = configs_[row.key.configIndex];
    stl::SimConfig config;
    if (spec.makeSource) {
        config = spec.makeSource(source);
    } else {
        const trace::Trace *memory = source.memoryTrace();
        if (memory == nullptr)
            return invalidArgumentError(
                "config '" + row.key.configLabel +
                "' sizes itself from the whole trace, but "
                "workload '" +
                row.key.workload +
                "' is not RAM-backed; use "
                "ConfigSpec::deferredSource");
        config = spec.make(*memory);
    }
    stl::Simulator simulator(config);
    if (options_.observerFactory)
        row.observers = options_.observerFactory(row.key);
    for (const auto &observer : row.observers)
        simulator.addObserver(observer.get());

    std::unique_ptr<trace::TraceInput> input = source.open();
    const auto run_start = std::chrono::steady_clock::now();
    StatusOr<stl::SimResult> result = simulator.tryRun(*input);
    row.wallSec = secondsSince(run_start);
    if (!result.ok())
        return result.status();
    row.result = std::move(result).value();
    if (!source.sizeHint())
        row.ops = row.result.reads + row.result.writes;
    return Status();
}

} // namespace logseek::sweep
