/**
 * @file
 * API-surface tests: the umbrella header compiles and exposes the
 * whole stack, and the documented README flow works end to end.
 */

#include <gtest/gtest.h>

#include "logseek.h"

namespace logseek
{
namespace
{

TEST(Api, ReadmeQuickstartFlow)
{
    // The exact flow documented in README.md, replayed under a
    // paranoid invariant checker (first violation panics).
    trace::Trace trace =
        workloads::makeWorkload("hm_1", {.scale = 0.004, .seed = 1});

    stl::SimConfig config;
    config.translation = stl::TranslationKind::LogStructured;
    config.cache = stl::SelectiveCacheConfig{64 * kMiB};

    analysis::ValidatingObserver validator({.paranoid = true});
    const auto [baseline, ls] =
        stl::runWithBaseline(trace, config, {&validator});
    const double saf = stl::seekAmplification(baseline, ls).value();
    EXPECT_GT(saf, 0.0);
    EXPECT_EQ(baseline.configLabel, "NoLS");
    EXPECT_EQ(ls.configLabel, "LS+cache");
    EXPECT_EQ(validator.eventCount(), 2 * trace.size());
    EXPECT_EQ(validator.violationCount(), 0u);
}

TEST(Api, AllTranslationKindsRunTheSameTrace)
{
    trace::Trace trace("t");
    for (int i = 0; i < 50; ++i)
        trace.appendWrite(static_cast<Lba>((i * 13) % 200), 4);
    trace.appendRead(0, 200);

    for (const auto kind :
         {stl::TranslationKind::Conventional,
          stl::TranslationKind::LogStructured,
          stl::TranslationKind::FiniteLogStructured,
          stl::TranslationKind::MediaCache}) {
        stl::SimConfig config;
        config.translation = kind;
        // 16 MiB capacity in 1 MiB segments leaves the default
        // cleaning target (4) well below the segment count.
        config.finiteLog.capacityBytes = 16 * kMiB;
        config.finiteLog.segmentBytes = kMiB;
        analysis::ValidatingObserver validator({.paranoid = true});
        stl::Simulator simulator(config);
        simulator.addObserver(&validator);
        const stl::SimResult result = simulator.run(trace);
        EXPECT_EQ(result.reads, 1u) << result.configLabel;
        EXPECT_EQ(result.writes, 50u) << result.configLabel;
        EXPECT_EQ(validator.violationCount(), 0u)
            << result.configLabel;
    }
}

TEST(Api, ReorderedTraceFeedsTheSimulator)
{
    const trace::Trace trace =
        workloads::makeWorkload("w84", {.scale = 0.004, .seed = 2});
    const trace::Trace sorted = trace::reorderElevator(trace);
    ASSERT_EQ(sorted.size(), trace.size());

    stl::SimConfig config;
    config.translation = stl::TranslationKind::Conventional;
    const stl::SimResult raw = stl::Simulator(config).run(trace);
    const stl::SimResult ncq = stl::Simulator(config).run(sorted);
    // Elevator scheduling cannot make the conventional drive seek
    // more on this mis-ordered workload.
    EXPECT_LE(ncq.totalSeeks(), raw.totalSeeks());
}

} // namespace
} // namespace logseek
