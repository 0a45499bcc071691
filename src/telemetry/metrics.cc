#include "metrics.h"

#include <algorithm>
#include <limits>

namespace logseek::telemetry
{

std::atomic<bool> g_enabled{false};

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t
bucketLowerBound(std::size_t i)
{
    return i == 0 ? 0 : std::uint64_t{1} << i;
}

std::uint64_t
bucketUpperBound(std::size_t i)
{
    if (i >= kHistogramBuckets - 1)
        return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << (i + 1)) - 1;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    sum += other.sum;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        buckets[i] += other.buckets[i];
}

double
HistogramSnapshot::mean() const
{
    return count == 0 ? 0.0
                      : static_cast<double>(sum) /
                            static_cast<double>(count);
}

std::uint64_t
HistogramSnapshot::percentileUpperBound(double p) const
{
    if (count == 0)
        return 0;
    const double clamped = std::clamp(p, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        clamped * static_cast<double>(count));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        seen += buckets[i];
        if (seen >= rank && seen > 0)
            return bucketUpperBound(i);
    }
    return bucketUpperBound(kHistogramBuckets - 1);
}

void
LatencyHistogram::merge(const HistogramSnapshot &samples)
{
    if (!enabled())
        return;
    count_.fetch_add(samples.count, std::memory_order_relaxed);
    sum_.fetch_add(samples.sum, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        buckets_[i].fetch_add(samples.buckets[i],
                              std::memory_order_relaxed);
}

HistogramSnapshot
LatencyHistogram::snapshot() const
{
    HistogramSnapshot out;
    out.count = count_.load(std::memory_order_relaxed);
    out.sum = sum_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

void
LatencyHistogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
}

const CounterSnapshot *
MetricsSnapshot::findCounter(const std::string &name,
                             const std::string &labels) const
{
    for (const CounterSnapshot &counter : counters)
        if (counter.name == name && counter.labels == labels)
            return &counter;
    return nullptr;
}

const GaugeSnapshot *
MetricsSnapshot::findGauge(const std::string &name,
                           const std::string &labels) const
{
    for (const GaugeSnapshot &gauge : gauges)
        if (gauge.name == name && gauge.labels == labels)
            return &gauge;
    return nullptr;
}

const HistogramSnapshot *
MetricsSnapshot::findHistogram(const std::string &name,
                               const std::string &labels) const
{
    for (const HistogramSnapshot &histogram : histograms)
        if (histogram.name == name && histogram.labels == labels)
            return &histogram;
    return nullptr;
}

Registry &
Registry::global()
{
    static Registry *instance = new Registry();
    return *instance;
}

Counter &
Registry::counter(const std::string &name,
                  const std::string &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[{name, labels}];
    if (slot == nullptr)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[{name, labels}];
    if (slot == nullptr)
        slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyHistogram &
Registry::histogram(const std::string &name,
                    const std::string &labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[{name, labels}];
    if (slot == nullptr)
        slot = std::make_unique<LatencyHistogram>();
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot out;
    out.counters.reserve(counters_.size());
    for (const auto &[key, counter] : counters_)
        out.counters.push_back(
            {key.first, key.second, counter->value()});
    out.gauges.reserve(gauges_.size());
    for (const auto &[key, gauge] : gauges_)
        out.gauges.push_back(
            {key.first, key.second, gauge->value()});
    out.histograms.reserve(histograms_.size());
    for (const auto &[key, histogram] : histograms_) {
        HistogramSnapshot snap = histogram->snapshot();
        snap.name = key.first;
        snap.labels = key.second;
        out.histograms.push_back(std::move(snap));
    }
    return out;
}

void
Registry::resetValues()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, counter] : counters_)
        counter->reset();
    for (const auto &[key, gauge] : gauges_)
        gauge->reset();
    for (const auto &[key, histogram] : histograms_)
        histogram->reset();
}

} // namespace logseek::telemetry
