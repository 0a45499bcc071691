/**
 * @file
 * Cross-checks replay telemetry against SimResult: the counters
 * and latency histograms the replay engine publishes must agree
 * with the simulator's own tallies when telemetry is armed, also
 * summed over concurrent replays, stay at zero when it is not or
 * when the run fails, and never perturb the simulation itself.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "counting_input.h"
#include "stl/simulator.h"
#include "sweep/sweep_runner.h"
#include "telemetry/metrics.h"
#include "trace/input.h"
#include "util/random.h"

namespace logseek::stl
{
namespace
{

/** Arms telemetry for one test and restores the default (off). */
struct EnabledGuard
{
    EnabledGuard() { setEnabledAndReset(true); }
    ~EnabledGuard() { setEnabledAndReset(false); }

  private:
    static void setEnabledAndReset(bool on)
    {
        telemetry::Registry::global().resetValues();
        telemetry::setEnabled(on);
    }
};

trace::Trace
mixedTrace()
{
    trace::Trace trace("t");
    trace.appendWrite(0, 8);
    trace.appendWrite(8, 8);
    trace.appendWrite(100, 8);
    trace.appendWrite(4, 2); // fragments the first extent
    trace.appendRead(0, 10); // fragmented read under LS
    trace.appendRead(108, 4);
    trace.appendRead(50, 4);
    return trace;
}

SimConfig
lsConfig()
{
    SimConfig config;
    config.translation = TranslationKind::LogStructured;
    return config;
}

std::uint64_t
counterValue(const telemetry::MetricsSnapshot &snap,
             const std::string &name, const std::string &labels)
{
    const telemetry::CounterSnapshot *counter =
        snap.findCounter(name, labels);
    return counter != nullptr ? counter->value : 0;
}

TEST(ReplayTelemetry, DisabledReplayLeavesCountersAtZero)
{
    telemetry::Registry::global().resetValues();
    ASSERT_FALSE(telemetry::enabled());
    const SimResult result =
        Simulator(lsConfig()).run(mixedTrace());
    EXPECT_GT(result.reads, 0u);

    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    EXPECT_EQ(counterValue(snap, "replay_requests_total",
                           "type=\"read\""),
              0u);
    EXPECT_EQ(counterValue(snap, "replay_requests_total",
                           "type=\"write\""),
              0u);
    const telemetry::HistogramSnapshot *latency =
        snap.findHistogram("replay_read_latency_ns");
    if (latency != nullptr) {
        EXPECT_EQ(latency->count, 0u);
    }
}

TEST(ReplayTelemetry, EnabledReplayCountersMatchSimResult)
{
    const EnabledGuard armed;
    const SimResult result =
        Simulator(lsConfig()).run(mixedTrace());

    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    EXPECT_EQ(counterValue(snap, "replay_requests_total",
                           "type=\"read\""),
              result.reads);
    EXPECT_EQ(counterValue(snap, "replay_requests_total",
                           "type=\"write\""),
              result.writes);
    EXPECT_EQ(counterValue(snap, "replay_seeks_total",
                           "type=\"read\""),
              result.readSeeks);
    EXPECT_EQ(counterValue(snap, "replay_seeks_total",
                           "type=\"write\""),
              result.writeSeeks);

    // One read-latency sample per host read request.
    const telemetry::HistogramSnapshot *latency =
        snap.findHistogram("replay_read_latency_ns");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count, result.reads);

    // The per-stage serve counters saw every fragment the replay
    // produced (each fragment resolves to exactly one outcome in
    // exactly one stage, plus misses passed along the pipeline).
    std::uint64_t stage_serves = 0;
    for (const telemetry::CounterSnapshot &counter : snap.counters)
        if (counter.name == "replay_stage_serves_total")
            stage_serves += counter.value;
    EXPECT_GE(stage_serves, result.readFragments);

    // One translate-latency sample per host read request.
    const telemetry::HistogramSnapshot *translate =
        snap.findHistogram("replay_translate_latency_ns");
    ASSERT_NE(translate, nullptr);
    EXPECT_EQ(translate->count, result.reads);
}

TEST(ReplayTelemetry, ExtentMapCountersObserveTheHotPath)
{
    const EnabledGuard armed;
    // Enough sequential writes and reads to split leaves and give
    // the last-touched-leaf cursor repeated same-window lookups.
    trace::Trace trace("t");
    for (Lba lba = 0; lba < 4096; lba += 8)
        trace.appendWrite(lba, 4); // gaps prevent coalescing
    for (Lba lba = 0; lba < 4096; lba += 8)
        trace.appendRead(lba, 4);
    (void)Simulator(lsConfig()).run(trace);

    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    // 512 four-sector entries at 64 per leaf forces splits.
    EXPECT_GT(counterValue(snap, "extent_map_node_splits_total", ""),
              0u);
    // The sequential read pass resolves mostly on the cursor.
    EXPECT_GT(counterValue(snap, "extent_map_cursor_hits_total", ""),
              0u);
}

TEST(ReplayTelemetry, TelemetryDoesNotPerturbTheSimulation)
{
    telemetry::Registry::global().resetValues();
    ASSERT_FALSE(telemetry::enabled());
    const SimResult plain =
        Simulator(lsConfig()).run(mixedTrace());

    SimResult instrumented;
    {
        const EnabledGuard armed;
        instrumented = Simulator(lsConfig()).run(mixedTrace());
    }

    EXPECT_EQ(plain, instrumented);
}

TEST(ReplayTelemetry, CleaningSeekCounterMatchesSimResult)
{
    const EnabledGuard armed;
    // Random overwrites leave every reclaimed segment partly live,
    // so cleaning must merge (move data and seek) rather than
    // reclaiming fully-dead segments for free — the regime where
    // replay_seeks_total{type="cleaning"} must actually move.
    trace::Trace trace("t");
    Rng rng(7);
    for (int i = 0; i < 6000; ++i)
        trace.appendWrite(rng.nextUint(4096), 8);

    SimConfig config;
    config.translation = TranslationKind::FiniteLogStructured;
    config.finiteLog.capacityBytes = 8 * kMiB;
    config.finiteLog.segmentBytes = 512 * kKiB;
    config.finiteLog.cleanReserveSegments = 2;
    config.finiteLog.cleanTargetSegments = 4;
    const SimResult result = Simulator(config).run(trace);

    // The premise: this workload really exercises the cleaner.
    ASSERT_GT(result.cleaningMerges, 0u);
    ASSERT_GT(result.cleaningSeeks, 0u);

    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    EXPECT_EQ(counterValue(snap, "replay_seeks_total",
                           "type=\"cleaning\""),
              result.cleaningSeeks);
    // The finite log's own GC telemetry moves with the cleaner.
    EXPECT_EQ(counterValue(snap, "gc_reclaims_total",
                           "policy=\"greedy\""),
              result.cleaningMerges);
    EXPECT_EQ(counterValue(snap, "gc_moved_bytes_total",
                           "policy=\"greedy\""),
              result.gcVictimLiveBytes);
}

/**
 * Writes that fill a 4 MiB space, then small random overwrites
 * mixed with re-reads of 64 hot 32 KiB ranges: under a log the
 * overwrites fragment the re-reads, the hot set gives the cache
 * repeat hits, and the overwrites' neighbours at the log head give
 * the drive buffer look-ahead-behind hits.
 */
trace::Trace
fragmentingTrace(std::uint64_t seed = 42)
{
    trace::Trace trace("frag");
    constexpr Lba kSpan = 8192;
    for (Lba lba = 0; lba < kSpan; lba += 64)
        trace.appendWrite(lba, 64);
    Rng rng(seed);
    for (int i = 0; i < 4000; ++i) {
        if (rng.nextUint(3) == 0)
            trace.appendWrite(rng.nextUint(kSpan - 8),
                              1 + rng.nextUint(8));
        else
            trace.appendRead(rng.nextUint(kSpan / 64) * 64, 64);
    }
    return trace;
}

std::uint64_t
stageSamples(const telemetry::MetricsSnapshot &snap,
             const std::string &stage)
{
    const telemetry::HistogramSnapshot *latency = snap.findHistogram(
        "replay_stage_serve_latency_ns", "stage=\"" + stage + "\"");
    return latency != nullptr ? latency->count : 0;
}

std::uint64_t
stageServes(const telemetry::MetricsSnapshot &snap,
            const std::string &stage, const std::string &outcome)
{
    return counterValue(snap, "replay_stage_serves_total",
                        "stage=\"" + stage + "\",outcome=\"" +
                            outcome + "\"");
}

TEST(ReplayTelemetry, StageSeriesMatchSimResult)
{
    const EnabledGuard armed;
    const trace::Trace trace = fragmentingTrace();

    SimConfig nols;
    nols.translation = TranslationKind::Conventional;
    SimConfig finite;
    finite.translation = TranslationKind::FiniteLogStructured;
    finite.finiteLog.capacityBytes = 64 * kMiB;

    for (const SimConfig &base : {nols, lsConfig(), finite}) {
        for (unsigned mask = 0; mask < 8; ++mask) {
            SimConfig config = base;
            if (mask & 1)
                config.cache = SelectiveCacheConfig{};
            if (mask & 2)
                config.prefetch = PrefetchConfig{};
            if (mask & 4)
                config.defrag = DefragConfig{};
            SCOPED_TRACE(config.label());

            telemetry::Registry::global().resetValues();
            const SimResult r = Simulator(config).run(trace);
            const telemetry::MetricsSnapshot snap =
                telemetry::Registry::global().snapshot();

            EXPECT_EQ(counterValue(snap, "replay_requests_total",
                                   "type=\"read\""),
                      r.reads);
            EXPECT_EQ(counterValue(snap, "replay_requests_total",
                                   "type=\"write\""),
                      r.writes);
            EXPECT_EQ(counterValue(snap, "replay_seeks_total",
                                   "type=\"read\""),
                      r.readSeeks);
            EXPECT_EQ(counterValue(snap, "replay_seeks_total",
                                   "type=\"write\""),
                      r.writeSeeks);
            EXPECT_EQ(counterValue(snap, "replay_seeks_total",
                                   "type=\"cleaning\""),
                      r.cleaningSeeks);
            EXPECT_EQ(counterValue(snap, "replay_media_bytes_total",
                                   "dir=\"read\""),
                      r.mediaReadBytes);
            EXPECT_EQ(counterValue(snap, "replay_media_bytes_total",
                                   "dir=\"write\""),
                      r.mediaWriteBytes);
            EXPECT_EQ(counterValue(snap,
                                   "replay_defrag_rewrites_total", ""),
                      r.defragRewrites);

            // Every read has at least one fragment; only fragmented
            // reads add to readFragments.
            const std::uint64_t fragments =
                r.readFragments + r.reads - r.fragmentedReads;
            // The cache is offered every fragment (it looks up only
            // those of fragmented reads), the buffer what the cache
            // did not serve, and the media what neither served.
            const std::uint64_t cache_offered =
                config.cache ? fragments : 0;
            const std::uint64_t prefetch_offered =
                config.prefetch ? fragments - r.cacheHits : 0;
            const std::uint64_t media_offered =
                fragments - r.cacheHits - r.prefetchHits;

            EXPECT_EQ(stageServes(snap, "selective-cache", "hit"),
                      r.cacheHits);
            EXPECT_EQ(stageServes(snap, "selective-cache", "miss"),
                      cache_offered - r.cacheHits);
            EXPECT_EQ(stageServes(snap, "prefetch", "hit"),
                      r.prefetchHits);
            EXPECT_EQ(stageServes(snap, "prefetch", "miss"),
                      prefetch_offered - r.prefetchHits);
            EXPECT_EQ(stageServes(snap, "media", "fetched"),
                      media_offered);
            for (const char *stage : {"selective-cache", "prefetch"}) {
                EXPECT_EQ(stageServes(snap, stage, "fetched"), 0u)
                    << stage;
            }
            for (const char *outcome : {"hit", "miss", "fetched"}) {
                EXPECT_EQ(stageServes(snap, "defrag", outcome), 0u)
                    << outcome;
            }
            EXPECT_EQ(stageServes(snap, "media", "hit"), 0u);
            EXPECT_EQ(stageServes(snap, "media", "miss"), 0u);

            EXPECT_EQ(stageSamples(snap, "selective-cache"),
                      cache_offered);
            EXPECT_EQ(stageSamples(snap, "prefetch"),
                      prefetch_offered);
            EXPECT_EQ(stageSamples(snap, "media"), media_offered);

            // The premises: the mechanisms really act on this trace
            // (LS+cache+prefetch hits in both, LS+all defragments).
            if (base.translation == TranslationKind::LogStructured &&
                mask == 3) {
                EXPECT_GT(r.cacheHits, 0u);
                EXPECT_GT(r.prefetchHits, 0u);
            }
            if (base.translation == TranslationKind::LogStructured &&
                mask == 7) {
                EXPECT_GT(r.defragRewrites, 0u);
            }
        }
    }
}

TEST(ReplayTelemetry, DefragTriggerIsTimedOncePerRead)
{
    const EnabledGuard armed;
    SimConfig config = lsConfig();
    config.defrag = DefragConfig{};
    const SimResult result =
        Simulator(config).run(fragmentingTrace());
    ASSERT_GT(result.defragRewrites, 0u);

    // The trigger decides after every read, rewriting or not.
    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    EXPECT_EQ(stageSamples(snap, "defrag"), result.reads);

    // NoLS cannot relocate, so it has no trigger to time.
    telemetry::Registry::global().resetValues();
    config.translation = TranslationKind::Conventional;
    (void)Simulator(config).run(fragmentingTrace());
    EXPECT_EQ(stageSamples(telemetry::Registry::global().snapshot(),
                           "defrag"),
              0u);
}

/** LS with all three read-path mechanisms: every stage is timed. */
SimConfig
lsAllConfig()
{
    SimConfig config = lsConfig();
    config.cache = SelectiveCacheConfig{};
    config.prefetch = PrefetchConfig{};
    config.defrag = DefragConfig{};
    return config;
}

TEST(ReplayTelemetry, FailedRunPublishesNoLatency)
{
    const EnabledGuard armed;
    // Thousands of reads are served, and timed, before record k
    // turns out to be empty.
    const trace::Trace served = fragmentingTrace();
    std::vector<trace::IoRecord> records(served.begin(), served.end());
    const std::size_t k = records.size();
    records.push_back({0, trace::IoType::Read, {64, 0}});
    records.push_back({0, trace::IoType::Read, {0, 64}});
    CountingInput input(std::move(records));

    const StatusOr<SimResult> result =
        Simulator(lsAllConfig()).tryRun(input);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(result.status().message().find(
                  "record " + std::to_string(k) + " has an empty"),
              std::string::npos)
        << result.status().message();

    // Like the counters, the latency samples of a run that throws
    // are never published.
    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    for (const telemetry::HistogramSnapshot &histogram :
         snap.histograms) {
        if (histogram.name.starts_with("replay_") &&
            histogram.name.ends_with("latency_ns")) {
            EXPECT_EQ(histogram.count, 0u)
                << histogram.name << "{" << histogram.labels << "}";
        }
    }
    EXPECT_EQ(counterValue(snap, "replay_requests_total",
                           "type=\"read\""),
              0u);
}

TEST(ReplayTelemetry, ConcurrentReplaysMergeExactly)
{
    const EnabledGuard armed;
    // Eight LS+all cells on four workers: each replay records into
    // its own histograms and merges them as it finishes, so the
    // registry must hold exactly the sum of the cells' samples.
    std::vector<sweep::WorkloadSpec> specs;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sweep::WorkloadSpec spec;
        spec.name = "frag" + std::to_string(seed);
        spec.load = [seed] {
            return std::make_shared<const trace::InMemoryTraceSource>(
                fragmentingTrace(seed));
        };
        specs.push_back(std::move(spec));
    }
    sweep::SweepOptions options;
    options.jobs = 4;
    const sweep::SweepResult sweep =
        sweep::SweepRunner(
            std::move(specs),
            {sweep::ConfigSpec::fixed("LS+all", lsAllConfig())},
            std::move(options))
            .run();

    // Per cell, as StageSeriesMatchSimResult states it for one run:
    // one read and one translate sample per read, one defrag
    // sample per read, one cache sample per fragment, one buffer
    // sample per fragment the cache did not serve, and one media
    // sample per fragment neither served.
    std::uint64_t reads = 0;
    std::uint64_t cache = 0;
    std::uint64_t prefetch = 0;
    std::uint64_t media = 0;
    ASSERT_EQ(sweep.rows.size(), 8u);
    for (const sweep::RunRow &row : sweep.rows) {
        ASSERT_TRUE(row.status.ok()) << row.status.toString();
        const SimResult &r = row.result;
        const std::uint64_t fragments =
            r.readFragments + r.reads - r.fragmentedReads;
        reads += r.reads;
        cache += fragments;
        prefetch += fragments - r.cacheHits;
        media += fragments - r.cacheHits - r.prefetchHits;
    }

    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    for (const char *name :
         {"replay_read_latency_ns", "replay_translate_latency_ns"}) {
        const telemetry::HistogramSnapshot *latency =
            snap.findHistogram(name);
        ASSERT_NE(latency, nullptr) << name;
        EXPECT_EQ(latency->count, reads) << name;
    }
    EXPECT_EQ(stageSamples(snap, "selective-cache"), cache);
    EXPECT_EQ(stageSamples(snap, "prefetch"), prefetch);
    EXPECT_EQ(stageSamples(snap, "media"), media);
    EXPECT_EQ(stageSamples(snap, "defrag"), reads);
    EXPECT_EQ(counterValue(snap, "replay_requests_total",
                           "type=\"read\""),
              reads);
}

TEST(ReplayTelemetry, RepeatedReplaysAccumulateCounters)
{
    const EnabledGuard armed;
    const SimResult once = Simulator(lsConfig()).run(mixedTrace());
    (void)Simulator(lsConfig()).run(mixedTrace());

    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    EXPECT_EQ(counterValue(snap, "replay_requests_total",
                           "type=\"read\""),
              2 * once.reads);
}

} // namespace
} // namespace logseek::stl
