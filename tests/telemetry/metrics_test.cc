/**
 * @file
 * Tests for the telemetry metrics core: log-bucket boundary math,
 * histogram merge algebra (commutative and associative), a
 * snapshot recorded on one thread and merged into a histogram,
 * counter and gauge behavior under the global enabled flag,
 * ScopedTimer, and the registry's stable handles and snapshots.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "telemetry/metrics.h"
#include "util/random.h"

namespace logseek::telemetry
{
namespace
{

/** Arms telemetry for one test and restores the default (off). */
struct EnabledGuard
{
    EnabledGuard() { setEnabled(true); }
    ~EnabledGuard() { setEnabled(false); }
};

HistogramSnapshot
snapshotOf(const std::vector<std::uint64_t> &samples)
{
    const EnabledGuard armed;
    LatencyHistogram histogram;
    for (const std::uint64_t sample : samples)
        histogram.record(sample);
    return histogram.snapshot();
}

TEST(TelemetryMetricsTest, BucketIndexPowerOfTwoBoundaries)
{
    // Bucket 0 holds {0, 1}; bucket i holds [2^i, 2^(i+1) - 1].
    EXPECT_EQ(bucketIndex(0), 0u);
    EXPECT_EQ(bucketIndex(1), 0u);
    EXPECT_EQ(bucketIndex(2), 1u);
    EXPECT_EQ(bucketIndex(3), 1u);
    EXPECT_EQ(bucketIndex(4), 2u);
    EXPECT_EQ(bucketIndex(7), 2u);
    EXPECT_EQ(bucketIndex(8), 3u);
    for (std::size_t i = 1; i < 63; ++i) {
        const std::uint64_t lo = std::uint64_t{1} << i;
        EXPECT_EQ(bucketIndex(lo), i) << "2^" << i;
        EXPECT_EQ(bucketIndex(lo - 1), i - 1) << "2^" << i << "-1";
        EXPECT_EQ(bucketIndex(2 * lo - 1), i)
            << "2^" << (i + 1) << "-1";
    }
    // The last bucket absorbs everything from 2^63 up.
    EXPECT_EQ(bucketIndex(std::uint64_t{1} << 63),
              kHistogramBuckets - 1);
    EXPECT_EQ(bucketIndex(~std::uint64_t{0}),
              kHistogramBuckets - 1);
}

TEST(TelemetryMetricsTest, BucketBoundsRoundTripThroughIndex)
{
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        EXPECT_LE(bucketLowerBound(i), bucketUpperBound(i));
        EXPECT_EQ(bucketIndex(bucketLowerBound(i)), i);
        EXPECT_EQ(bucketIndex(bucketUpperBound(i)), i);
    }
    EXPECT_EQ(bucketLowerBound(0), 0u);
    EXPECT_EQ(bucketUpperBound(0), 1u);
    EXPECT_EQ(bucketUpperBound(kHistogramBuckets - 1),
              ~std::uint64_t{0});
}

TEST(TelemetryMetricsTest, MergeIsCommutativeAndAssociative)
{
    // Property test over random populations: merging bucket-wise
    // sums must not care about the order or grouping of merges.
    Rng rng(20260805);
    for (int round = 0; round < 20; ++round) {
        std::vector<std::uint64_t> sa, sb, sc;
        for (std::uint64_t n = rng.nextUint(200); n > 0; --n)
            sa.push_back(rng.nextUint(1u << 30));
        for (std::uint64_t n = rng.nextUint(200); n > 0; --n)
            sb.push_back(rng.nextUint(1u << 30));
        for (std::uint64_t n = rng.nextUint(200); n > 0; --n)
            sc.push_back(rng.nextUint(1u << 30));
        const HistogramSnapshot a = snapshotOf(sa);
        const HistogramSnapshot b = snapshotOf(sb);
        const HistogramSnapshot c = snapshotOf(sc);

        HistogramSnapshot ab = a;
        ab.merge(b);
        HistogramSnapshot ba = b;
        ba.merge(a);
        EXPECT_EQ(ab, ba) << "merge(a,b) != merge(b,a)";

        HistogramSnapshot ab_c = ab;
        ab_c.merge(c);
        HistogramSnapshot bc = b;
        bc.merge(c);
        HistogramSnapshot a_bc = a;
        a_bc.merge(bc);
        EXPECT_EQ(ab_c, a_bc)
            << "merge(merge(a,b),c) != merge(a,merge(b,c))";
    }
}

TEST(TelemetryMetricsTest, MergedSnapshotMatchesCombinedRecording)
{
    const EnabledGuard armed;
    LatencyHistogram separate_a, separate_b, combined;
    for (std::uint64_t v : {1u, 5u, 100u, 4096u}) {
        separate_a.record(v);
        combined.record(v);
    }
    for (std::uint64_t v : {2u, 5u, 1u << 20}) {
        separate_b.record(v);
        combined.record(v);
    }
    HistogramSnapshot merged = separate_a.snapshot();
    merged.merge(separate_b.snapshot());
    EXPECT_EQ(merged, combined.snapshot());
}

TEST(TelemetryMetricsTest, RecordedSnapshotMergesLikeDirectRecording)
{
    // A run records into its own snapshot and merges it once; the
    // histogram must end up as if every sample had been recorded
    // into it directly, on top of what it already held.
    std::vector<std::uint64_t> samples = {0, 1, 2, 3,
                                          std::uint64_t{1} << 63};
    Rng rng(20261018);
    for (int i = 0; i < 1000; ++i)
        samples.push_back(rng.nextUint(1u << 30));

    HistogramSnapshot local;
    for (const std::uint64_t sample : samples)
        local.record(sample);
    EXPECT_EQ(local, snapshotOf(samples));

    LatencyHistogram merged;
    merged.merge(local); // disabled: a no-op
    EXPECT_EQ(merged.snapshot().count, 0u);

    const EnabledGuard armed;
    LatencyHistogram direct;
    merged.record(77);
    direct.record(77);
    merged.merge(local);
    for (const std::uint64_t sample : samples)
        direct.record(sample);
    EXPECT_EQ(merged.snapshot(), direct.snapshot());
    EXPECT_EQ(merged.snapshot().count, samples.size() + 1);
}

TEST(TelemetryMetricsTest, CounterIsNoOpWhileDisabled)
{
    Counter counter;
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 0u);

    const EnabledGuard armed;
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);

    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(TelemetryMetricsTest, GaugeSetAddAndDisabledGate)
{
    Gauge gauge;
    gauge.set(7);
    EXPECT_EQ(gauge.value(), 0);

    const EnabledGuard armed;
    gauge.set(7);
    gauge.add(-2);
    EXPECT_EQ(gauge.value(), 5);
    gauge.reset();
    EXPECT_EQ(gauge.value(), 0);
}

TEST(TelemetryMetricsTest, HistogramCountSumAndPercentile)
{
    const EnabledGuard armed;
    LatencyHistogram histogram;
    EXPECT_EQ(histogram.snapshot().count, 0u);
    EXPECT_DOUBLE_EQ(histogram.snapshot().mean(), 0.0);
    EXPECT_EQ(histogram.snapshot().percentileUpperBound(0.5), 0u);

    for (int i = 0; i < 90; ++i)
        histogram.record(100); // bucket 6: [64, 127]
    for (int i = 0; i < 10; ++i)
        histogram.record(100000); // bucket 16: [65536, 131071]

    const HistogramSnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_EQ(snap.sum, 90u * 100u + 10u * 100000u);
    EXPECT_DOUBLE_EQ(snap.mean(), (9000.0 + 1000000.0) / 100.0);
    EXPECT_EQ(snap.percentileUpperBound(0.5), 127u);
    EXPECT_EQ(snap.percentileUpperBound(0.99), 131071u);
}

TEST(TelemetryMetricsTest, ScopedTimerRecordsOnlyWhenEnabled)
{
    LatencyHistogram histogram;
    {
        const ScopedTimer timer(&histogram); // disabled: inert
    }
    EXPECT_EQ(histogram.snapshot().count, 0u);

    const EnabledGuard armed;
    {
        const ScopedTimer timer(&histogram);
    }
    {
        const ScopedTimer timer(nullptr); // null target: inert
    }
    EXPECT_EQ(histogram.snapshot().count, 1u);
}

TEST(TelemetryMetricsTest, RegistryHandlesAreStable)
{
    Registry registry;
    Counter &a = registry.counter("test_total", "k=\"1\"");
    Counter &b = registry.counter("test_total", "k=\"1\"");
    Counter &other = registry.counter("test_total", "k=\"2\"");
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &other);

    LatencyHistogram &h = registry.histogram("test_latency_ns");
    EXPECT_EQ(&h, &registry.histogram("test_latency_ns"));
}

TEST(TelemetryMetricsTest, RegistrySnapshotCarriesNamesAndLabels)
{
    const EnabledGuard armed;
    Registry registry;
    registry.counter("zz_total").add(3);
    registry.counter("aa_total", "x=\"1\"").add(1);
    registry.gauge("depth").set(5);
    registry.histogram("lat_ns", "s=\"m\"").record(9);

    const MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    // std::map ordering: snapshots come out sorted by (name,
    // labels), which the Prometheus exporter relies on.
    EXPECT_EQ(snap.counters[0].name, "aa_total");
    EXPECT_EQ(snap.counters[1].name, "zz_total");

    ASSERT_NE(snap.findCounter("zz_total"), nullptr);
    EXPECT_EQ(snap.findCounter("zz_total")->value, 3u);
    ASSERT_NE(snap.findCounter("aa_total", "x=\"1\""), nullptr);
    EXPECT_EQ(snap.findCounter("aa_total"), nullptr);
    ASSERT_NE(snap.findGauge("depth"), nullptr);
    EXPECT_EQ(snap.findGauge("depth")->value, 5);
    ASSERT_NE(snap.findHistogram("lat_ns", "s=\"m\""), nullptr);
    EXPECT_EQ(snap.findHistogram("lat_ns", "s=\"m\"")->count, 1u);
    EXPECT_EQ(snap.findHistogram("lat_ns"), nullptr);
}

TEST(TelemetryMetricsTest, ResetValuesZeroesWithoutInvalidating)
{
    const EnabledGuard armed;
    Registry registry;
    Counter &counter = registry.counter("reset_total");
    counter.add(5);
    registry.histogram("reset_ns").record(1);
    registry.gauge("reset_depth").set(2);

    registry.resetValues();
    // The handle still works and the slate is clean.
    EXPECT_EQ(counter.value(), 0u);
    counter.add(1);
    EXPECT_EQ(registry.snapshot().findCounter("reset_total")->value,
              1u);
    EXPECT_EQ(registry.snapshot().findHistogram("reset_ns")->count,
              0u);
    EXPECT_EQ(registry.snapshot().findGauge("reset_depth")->value,
              0);
}

TEST(TelemetryMetricsTest, GlobalRegistryIsASingleton)
{
    EXPECT_EQ(&Registry::global(), &Registry::global());
}

} // namespace
} // namespace logseek::telemetry
