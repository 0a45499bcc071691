/**
 * @file
 * Process-wide metrics: counters, gauges and log-bucketed latency
 * histograms behind a named Registry.
 *
 * Hot-path instrumentation must cost nothing when observability is
 * off and must not serialize the sweep's worker threads when it is
 * on. Both properties come from the same two decisions: a single
 * process-wide enabled flag checked with one relaxed atomic load
 * before any work happens, and per-thread sharded cells — every
 * thread increments its own cache-line-padded cell, and the shards
 * are only summed when a snapshot is taken. Metric handles returned
 * by the registry are stable for the life of the process, so
 * per-run objects (replay engines, task pools) resolve their handles
 * once at construction and pay only the enabled-check plus one
 * relaxed fetch_add per event afterwards. The replay engine's
 * counters are published once per run, from its finished result.
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

/** Sharding width of counters and histograms (power of two). */
constexpr std::size_t kShardCount = 16;

/** Log-bucketed histogram resolution: one bucket per power of two. */
constexpr std::size_t kHistogramBuckets = 64;

/**
 * The shard of the calling thread: threads are dealt shards
 * round-robin on first use, so up to kShardCount concurrent
 * threads never share a cell.
 */
inline std::size_t
shardIndex()
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t mine =
        next.fetch_add(1, std::memory_order_relaxed) % kShardCount;
    return mine;
}

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

/** One cache line per shard so increments never false-share. */
struct alignas(64) CounterCell
{
    std::atomic<std::uint64_t> value{0};
};

/**
 * Monotonically increasing counter. add() is wait-free on the
 * calling thread's shard and a no-op while telemetry is disabled;
 * value() sums the shards (approximate under concurrent writers,
 * exact once they quiesce).
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
        cells_[shardIndex()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    std::uint64_t value() const;

    /** Zero every shard (tests and bench legs only). */
    void reset();

  private:
    std::array<CounterCell, kShardCount> cells_;
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
 * snapshots taken on different machines (or sweep shards) combine
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
 * convention). record() touches only the calling thread's shard.
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
        Shard &shard = shards_[shardIndex()];
        shard.count.fetch_add(1, std::memory_order_relaxed);
        shard.sum.fetch_add(value, std::memory_order_relaxed);
        shard.buckets[bucketIndex(value)].fetch_add(
            1, std::memory_order_relaxed);
    }

    /** Aggregate the shards (name/labels left empty; the registry
     *  fills them in). */
    HistogramSnapshot snapshot() const;

    void reset();

  private:
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::array<std::atomic<std::uint64_t>, kHistogramBuckets>
            buckets{};
    };

    std::array<Shard, kShardCount> shards_;
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
