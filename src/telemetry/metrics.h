/**
 * @file
 * Process-wide metrics: counters, gauges and log-bucketed latency
 * histograms behind a named Registry.
 *
 * Hot-path instrumentation must cost nothing when observability is
 * off, and the per-record kind costs no atomic even when it is on.
 * A single process-wide enabled flag, checked with one relaxed
 * atomic load, gates every update. Every registry metric is one
 * relaxed atomic cell per value (a histogram has one per bucket),
 * because only low-rate events reach it directly: a GC victim, a
 * task, a mount, a file open. An instrument that fires per record
 * lives on one thread with its owner (a replay engine, an extent
 * map), counts in plain integers or a HistogramSnapshot there, and
 * adds the total into the registry once, when its run finishes or
 * its map is destroyed. Metric handles returned by the registry are
 * stable for the life of the process.
 */

#ifndef LOGSEEK_TELEMETRY_METRICS_H
#define LOGSEEK_TELEMETRY_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace logseek::telemetry
{

/** The process-wide telemetry switch; off by default. */
extern std::atomic<bool> g_enabled;

/** True when telemetry collection is armed. */
inline bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

/** Arm or disarm telemetry collection process-wide. */
void setEnabled(bool on);

/** Log-bucketed histogram resolution: one bucket per power of two. */
constexpr std::size_t kHistogramBuckets = 64;

/**
 * Bucket of a sample: bucket 0 holds {0, 1}, bucket i holds
 * [2^i, 2^(i+1) - 1], and the last bucket absorbs everything from
 * 2^(kHistogramBuckets - 1) up.
 */
inline std::size_t
bucketIndex(std::uint64_t value)
{
    if (value < 2)
        return 0;
    const std::size_t width =
        static_cast<std::size_t>(std::bit_width(value));
    return width - 1 < kHistogramBuckets - 1 ? width - 1
                                             : kHistogramBuckets - 1;
}

/** Inclusive lower edge of bucket i. */
std::uint64_t bucketLowerBound(std::size_t i);

/** Inclusive upper edge of bucket i (UINT64_MAX for the last). */
std::uint64_t bucketUpperBound(std::size_t i);

/**
 * Monotonically increasing counter: one atomic cell. add() is
 * wait-free and a no-op while telemetry is disabled.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void
    add(std::uint64_t n = 1)
    {
        if (!enabled())
            return;
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the count (tests and bench legs only). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Last-write-wins instantaneous value (queue depths, worker
 * counts). A single atomic cell: gauges are set under their
 * owner's locks, not on fan-out hot paths.
 */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void
    set(std::int64_t v)
    {
        if (!enabled())
            return;
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t d)
    {
        if (!enabled())
            return;
        value_.fetch_add(d, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * The aggregated, mergeable value of one histogram. Merging adds
 * counts bucket-wise, so it is commutative and associative — two
 * snapshots taken on different machines (or sweep cells) combine
 * into the same distribution whatever the merge order.
 */
struct HistogramSnapshot
{
    std::string name;
    std::string labels;

    std::uint64_t count = 0;

    /** Sum of all recorded samples (saturating semantics are the
     *  caller's concern; latencies in ns fit comfortably). */
    std::uint64_t sum = 0;

    std::array<std::uint64_t, kHistogramBuckets> buckets{};

    /** Add one sample: plain adds, for a histogram one thread owns. */
    void
    record(std::uint64_t value)
    {
        ++count;
        sum += value;
        ++buckets[bucketIndex(value)];
    }

    /** Add another snapshot's population into this one. */
    void merge(const HistogramSnapshot &other);

    /** Arithmetic mean of the recorded samples; 0 when empty. */
    double mean() const;

    /**
     * Upper bound of the bucket containing quantile p in [0, 1]
     * (0 when empty). Log buckets make this a factor-of-two
     * estimate, which is what latency triage needs.
     */
    std::uint64_t percentileUpperBound(double p) const;

    bool operator==(const HistogramSnapshot &other) const
    {
        return count == other.count && sum == other.sum &&
               buckets == other.buckets;
    }
};

/**
 * Log-bucketed histogram of unsigned samples (latencies in ns by
 * convention): one count, one sum and one atomic cell per bucket.
 * record() and merge() are no-ops while telemetry is disabled.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram() = default;
    LatencyHistogram(const LatencyHistogram &) = delete;
    LatencyHistogram &operator=(const LatencyHistogram &) = delete;

    void
    record(std::uint64_t value)
    {
        if (!enabled())
            return;
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
        buckets_[bucketIndex(value)].fetch_add(
            1, std::memory_order_relaxed);
    }

    /** Add a population recorded elsewhere, e.g. one run's. */
    void merge(const HistogramSnapshot &samples);

    /** The current population (name/labels left empty; the
     *  registry fills them in). */
    HistogramSnapshot snapshot() const;

    void reset();

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets>
        buckets_{};
};

/**
 * RAII span timer: measures wall-clock from construction to
 * destruction and records the elapsed nanoseconds into a latency
 * histogram. When telemetry is disabled (or the histogram is null)
 * the constructor skips the clock read entirely.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(LatencyHistogram *histogram)
        : histogram_(histogram != nullptr && enabled() ? histogram
                                                       : nullptr)
    {
        if (histogram_ != nullptr)
            start_ = std::chrono::steady_clock::now();
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        if (histogram_ == nullptr)
            return;
        const auto elapsed =
            std::chrono::steady_clock::now() - start_;
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                elapsed)
                .count();
        histogram_->record(
            ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }

  private:
    LatencyHistogram *histogram_;
    std::chrono::steady_clock::time_point start_;
};

/** Snapshot of one counter, labeled. */
struct CounterSnapshot
{
    std::string name;
    std::string labels;
    std::uint64_t value = 0;
};

/** Snapshot of one gauge, labeled. */
struct GaugeSnapshot
{
    std::string name;
    std::string labels;
    std::int64_t value = 0;
};

/** Everything the registry knows, in (name, labels) order. */
struct MetricsSnapshot
{
    std::vector<CounterSnapshot> counters;
    std::vector<GaugeSnapshot> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** Find a counter by exact name and labels; null if absent. */
    const CounterSnapshot *
    findCounter(const std::string &name,
                const std::string &labels = "") const;

    /** Find a gauge by exact name and labels; null if absent. */
    const GaugeSnapshot *
    findGauge(const std::string &name,
              const std::string &labels = "") const;

    /** Find a histogram by exact name and labels; null if absent. */
    const HistogramSnapshot *
    findHistogram(const std::string &name,
                  const std::string &labels = "") const;
};

/**
 * Named metric registry. Metrics are created on first lookup and
 * live for the life of the registry, so the returned references are
 * stable handles; lookups take a mutex and belong in constructors,
 * not per-event paths. Labels are a pre-rendered Prometheus-style
 * pair list, e.g. `stage="media",outcome="hit"`.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide registry every subsystem reports into. */
    static Registry &global();

    Counter &counter(const std::string &name,
                     const std::string &labels = "");
    Gauge &gauge(const std::string &name,
                 const std::string &labels = "");
    LatencyHistogram &histogram(const std::string &name,
                                const std::string &labels = "");

    /** Aggregate every metric, sorted by (name, labels). */
    MetricsSnapshot snapshot() const;

    /**
     * Zero every metric's value without invalidating handles.
     * For tests and benchmark legs that need a clean slate.
     */
    void resetValues();

  private:
    using Key = std::pair<std::string, std::string>;

    mutable std::mutex mutex_;
    std::map<Key, std::unique_ptr<Counter>> counters_;
    std::map<Key, std::unique_ptr<Gauge>> gauges_;
    std::map<Key, std::unique_ptr<LatencyHistogram>> histograms_;
};

} // namespace logseek::telemetry

#endif // LOGSEEK_TELEMETRY_METRICS_H
