/**
 * @file
 * Unit tests for the trace-replay simulation engine.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "counting_input.h"
#include "stl/simulator.h"
#include "trace/input.h"
#include "util/logging.h"

namespace logseek::stl
{
namespace
{

SimConfig
lsConfig()
{
    SimConfig config;
    config.translation = TranslationKind::LogStructured;
    return config;
}

SimConfig
nolsConfig()
{
    SimConfig config;
    config.translation = TranslationKind::Conventional;
    return config;
}

/** Observer that records every event. */
class Recorder : public SimObserver
{
  public:
    void onEvent(const IoEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<IoEvent> events;
};

/** 1000 alternating writes and reads: four pulls of the engine. */
std::vector<trace::IoRecord>
mixedRecords()
{
    std::vector<trace::IoRecord> records;
    for (std::uint64_t i = 0; i < 1000; ++i)
        records.push_back(trace::IoRecord{
            i, i % 2 == 0 ? trace::IoType::Write : trace::IoType::Read,
            SectorExtent{(i * 37) % 4096, 8}});
    return records;
}

TEST(Simulator, TryRunPullsEachRecordOnce)
{
    CountingInput input(mixedRecords());
    const StatusOr<SimResult> result =
        Simulator(lsConfig()).tryRun(input);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(result.value().reads + result.value().writes, 1000u);
    EXPECT_EQ(input.pulled, 1000u);
}

TEST(Simulator, TryRunNamesTheBadRecordOfAStream)
{
    struct Case
    {
        SectorExtent extent;
        const char *message;
    };
    for (const Case &bad :
         {Case{{64, 0}, "trace 'counted': record 700 has an empty extent"},
          Case{{~0ULL - 4, 100},
               "trace 'counted': record 700 sector range overflows the "
               "address space"}}) {
        std::vector<trace::IoRecord> records = mixedRecords();
        records[700].extent = bad.extent;
        CountingInput input(std::move(records));
        Recorder recorder;
        Simulator simulator(lsConfig());
        simulator.addObserver(&recorder);
        const StatusOr<SimResult> result = simulator.tryRun(input);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
        EXPECT_EQ(result.status().message(), bad.message);
        // The records before the bad one were served and observed.
        EXPECT_EQ(recorder.events.size(), 700u);
    }
}

TEST(Simulator, ConventionalCountsTraceOrderSeeks)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 8);    // no seek (starts at 0)
    trace.appendWrite(8, 8);    // sequential
    trace.appendWrite(100, 8);  // write seek
    trace.appendRead(108, 4);   // sequential
    trace.appendRead(50, 4);    // read seek

    const SimResult result = Simulator(nolsConfig()).run(trace);
    EXPECT_EQ(result.writeSeeks, 1u);
    EXPECT_EQ(result.readSeeks, 1u);
    EXPECT_EQ(result.reads, 2u);
    EXPECT_EQ(result.writes, 3u);
    EXPECT_EQ(result.fragmentedReads, 0u);
}

TEST(Simulator, LogStructuredEliminatesWriteSeeks)
{
    trace::Trace trace("t");
    // Scattered writes: all seek under NoLS (after the first), none
    // under LS except the initial jump to the frontier.
    trace.appendWrite(500, 8);
    trace.appendWrite(10, 8);
    trace.appendWrite(900, 8);
    trace.appendWrite(300, 8);

    const SimResult nols = Simulator(nolsConfig()).run(trace);
    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(nols.writeSeeks, 4u);
    EXPECT_EQ(ls.writeSeeks, 1u); // only the move to the frontier
}

TEST(Simulator, FragmentedReadCostsOneSeekPerFragment)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(4, 2); // fragment the middle
    trace.appendRead(0, 10); // 3 fragments under LS

    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(ls.fragmentedReads, 1u);
    EXPECT_EQ(ls.readFragments, 3u);
    EXPECT_EQ(ls.readSeeks, 3u);

    const SimResult nols = Simulator(nolsConfig()).run(trace);
    EXPECT_EQ(nols.fragmentedReads, 0u);
    EXPECT_EQ(nols.readSeeks, 1u);
}

TEST(Simulator, UnwrittenDataReadsSeekIdenticallyInBothModes)
{
    trace::Trace trace("t");
    trace.appendRead(100, 8);
    trace.appendRead(5000, 8);
    trace.appendRead(200, 8);

    const SimResult nols = Simulator(nolsConfig()).run(trace);
    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(nols.readSeeks, ls.readSeeks);
    EXPECT_EQ(nols.totalSeeks(), ls.totalSeeks());
}

TEST(Simulator, TemporalReplayReadsAreSeekFreeUnderLs)
{
    // The paper's log-friendly toy case: scattered writes re-read
    // in write order cost no read seeks under LS (one seek to reach
    // the log, then fully sequential).
    trace::Trace trace("t");
    const std::vector<Lba> lbas{500, 10, 900, 300};
    for (const Lba lba : lbas)
        trace.appendWrite(lba, 8);
    for (const Lba lba : lbas)
        trace.appendRead(lba, 8);

    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(ls.readSeeks, 1u); // jump back to the log start only

    const SimResult nols = Simulator(nolsConfig()).run(trace);
    EXPECT_EQ(nols.readSeeks, 4u);
}

TEST(Simulator, SequentialReadAfterRandomWriteAmplifies)
{
    // The paper's log-sensitive toy case.
    trace::Trace trace("t");
    for (Lba lba = 0; lba < 100; lba += 10)
        trace.appendWrite(lba + (lba * 7) % 90, 2);
    trace.appendRead(0, 100);

    const auto [nols, ls] = runWithBaseline(trace, lsConfig());
    EXPECT_GT(ls.readSeeks, nols.readSeeks);
}

TEST(Simulator, EventSegmentsAndIndexing)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(4, 2);
    trace.appendRead(0, 10);

    Recorder recorder;
    Simulator simulator(lsConfig());
    simulator.addObserver(&recorder);
    simulator.run(trace);

    ASSERT_EQ(recorder.events.size(), 3u);
    EXPECT_EQ(recorder.events[0].opIndex, 0u);
    EXPECT_EQ(recorder.events[2].opIndex, 2u);
    EXPECT_EQ(recorder.events[0].segments.size(), 1u);
    EXPECT_EQ(recorder.events[2].segments.size(), 3u);
    EXPECT_TRUE(recorder.events[2].isFragmentedRead());
    EXPECT_FALSE(recorder.events[0].isFragmentedRead());
}

TEST(Simulator, MediaBytesAccounting)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendRead(0, 10);
    const SimResult result = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(result.mediaWriteBytes, 10 * kSectorBytes);
    EXPECT_EQ(result.mediaReadBytes, 10 * kSectorBytes);
}

TEST(Simulator, DefragRewritesFragmentedRead)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(4, 2);
    trace.appendRead(0, 10); // fragmented -> rewrite
    trace.appendRead(0, 10); // now contiguous

    SimConfig config = lsConfig();
    config.defrag = DefragConfig{};
    Recorder recorder;
    Simulator simulator(config);
    simulator.addObserver(&recorder);
    const SimResult result = simulator.run(trace);

    EXPECT_EQ(result.defragRewrites, 1u);
    EXPECT_EQ(result.defragBytes, 10 * kSectorBytes);
    EXPECT_TRUE(recorder.events[2].defragRewrite);
    EXPECT_FALSE(recorder.events[3].defragRewrite);
    // The second read sees a single segment.
    EXPECT_EQ(recorder.events[3].segments.size(), 1u);
    // The rewrite itself moved bytes to the media.
    EXPECT_EQ(result.mediaWriteBytes, (10 + 2 + 10) * kSectorBytes);
}

TEST(Simulator, DefragCountsRewriteSeeksAsWriteSeeks)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(20, 10);
    trace.appendWrite(4, 2);
    trace.appendRead(0, 10); // fragmented; head ends mid-log
    trace.appendRead(0, 10);

    SimConfig plain = lsConfig();
    SimConfig with_defrag = lsConfig();
    with_defrag.defrag = DefragConfig{};

    const SimResult base = Simulator(plain).run(trace);
    const SimResult defragged = Simulator(with_defrag).run(trace);
    // The rewrite adds at least one write seek relative to plain LS.
    EXPECT_GT(defragged.writeSeeks, base.writeSeeks);
    // But the repeated read becomes cheaper.
    EXPECT_LT(defragged.readSeeks, base.readSeeks);
}

TEST(Simulator, SelectiveCacheServesRepeatedFragments)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendWrite(4, 2);
    trace.appendRead(0, 10);
    trace.appendRead(0, 10);
    trace.appendRead(0, 10);

    SimConfig config = lsConfig();
    config.cache = SelectiveCacheConfig{};
    const SimResult result = Simulator(config).run(trace);
    // Second and third reads fully cached: 3 fragments each.
    EXPECT_EQ(result.cacheHits, 6u);
    // Only the first fragmented read touches the media.
    const SimResult plain = Simulator(lsConfig()).run(trace);
    EXPECT_LT(result.readSeeks, plain.readSeeks);
}

TEST(Simulator, CacheDoesNotEngageOnUnfragmentedReads)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 10);
    trace.appendRead(0, 10);
    trace.appendRead(0, 10);

    SimConfig config = lsConfig();
    config.cache = SelectiveCacheConfig{};
    const SimResult result = Simulator(config).run(trace);
    EXPECT_EQ(result.cacheHits, 0u);
    EXPECT_EQ(result.cacheMisses, 0u);
}

TEST(Simulator, PrefetchHitsWithinFragmentedRead)
{
    // Two LBA-adjacent sectors written in reverse order land
    // reversed in the log; with look-behind the second fragment is
    // already buffered.
    trace::Trace trace("t");
    trace.appendWrite(11, 1);
    trace.appendWrite(10, 1);
    trace.appendRead(10, 2);

    SimConfig config = lsConfig();
    config.prefetch = PrefetchConfig{};
    const SimResult result = Simulator(config).run(trace);
    EXPECT_EQ(result.prefetchHits, 1u);

    const SimResult plain = Simulator(lsConfig()).run(trace);
    EXPECT_LT(result.readSeeks, plain.readSeeks);
}

TEST(Simulator, StaticFragmentsReported)
{
    trace::Trace trace("t");
    trace.appendWrite(0, 4);
    trace.appendWrite(100, 4);
    trace.appendWrite(50, 4);
    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_EQ(ls.staticFragments, 3u);
    const SimResult nols = Simulator(nolsConfig()).run(trace);
    EXPECT_EQ(nols.staticFragments, 0u);
}

TEST(Simulator, RunIsRepeatable)
{
    trace::Trace trace("t");
    for (Lba lba = 0; lba < 1000; lba += 7)
        trace.appendWrite(lba, 3);
    trace.appendRead(0, 500);

    Simulator simulator(lsConfig());
    const SimResult first = simulator.run(trace);
    const SimResult second = simulator.run(trace);
    EXPECT_EQ(first.totalSeeks(), second.totalSeeks());
    EXPECT_EQ(first.readFragments, second.readFragments);
}

TEST(Simulator, SeekAmplificationHelper)
{
    SimResult baseline;
    baseline.readSeeks = 50;
    baseline.writeSeeks = 50;
    SimResult ls;
    ls.readSeeks = 300;
    ls.writeSeeks = 0;
    ASSERT_TRUE(seekAmplification(baseline, ls).has_value());
    EXPECT_DOUBLE_EQ(*seekAmplification(baseline, ls), 3.0);

    // A zero-seek baseline has no meaningful ratio: the helper
    // reports "undefined", not "no amplification".
    SimResult empty;
    EXPECT_FALSE(seekAmplification(empty, ls).has_value());
}

TEST(Simulator, PrintsEveryResultMember)
{
    // Each member holds its own value, so a member the printer
    // leaves out or names wrong shows; seekTimeSec needs all 17
    // digits to read back.
    SimResult result;
    std::map<std::string, std::string> expected;
    std::uint64_t next = 1000;
    forEachField(result, [&](const char *name, auto &member) {
        using T = std::decay_t<decltype(member)>;
        if constexpr (std::is_same_v<T, std::string>) {
            member = "s" + std::to_string(next++);
            expected[name] = member;
        } else if constexpr (std::is_same_v<T, double>) {
            member = 1.0 / 3.0;
        } else {
            member = next;
            expected[name] = std::to_string(next++);
        }
    });
    std::ostringstream out;
    out << result;
    const std::string text = " " + out.str() + " ";
    EXPECT_EQ(expected.size(), 35u);
    for (const auto &[name, value] : expected)
        EXPECT_NE(text.find(" " + name + "=" + value + " "),
                  std::string::npos)
            << name << " in " << text;

    const std::size_t at = text.find(" seekTimeSec=");
    ASSERT_NE(at, std::string::npos) << text;
    EXPECT_EQ(std::stod(text.substr(at + 13)), result.seekTimeSec);
    EXPECT_EQ(::testing::PrintToString(result), out.str());
}

TEST(Simulator, ConfigLabels)
{
    EXPECT_EQ(nolsConfig().label(), "NoLS");
    EXPECT_EQ(lsConfig().label(), "LS");
    SimConfig config = lsConfig();
    config.defrag = DefragConfig{};
    EXPECT_EQ(config.label(), "LS+defrag");
    config.prefetch = PrefetchConfig{};
    config.cache = SelectiveCacheConfig{};
    EXPECT_EQ(config.label(), "LS+defrag+prefetch+cache");
}

TEST(Simulator, RunWithBaselineUsesConventionalBaseline)
{
    trace::Trace trace("t");
    trace.appendWrite(500, 8);
    trace.appendWrite(10, 8);
    SimConfig config = lsConfig();
    config.cache = SelectiveCacheConfig{};
    const auto [baseline, ls] = runWithBaseline(trace, config);
    EXPECT_EQ(baseline.configLabel, "NoLS");
    EXPECT_EQ(ls.configLabel, "LS+cache");
    EXPECT_EQ(baseline.workload, "t");
}

TEST(Simulator, SeekTimeAccumulates)
{
    trace::Trace trace("t");
    // Many scattered writes: NoLS pays a long seek per write while
    // LS pays a single jump to the frontier.
    for (Lba lba = 0; lba < 10; ++lba)
        trace.appendWrite(((lba * 7) % 10) * 1000000, 8);
    const SimResult nols = Simulator(nolsConfig()).run(trace);
    EXPECT_GT(nols.seekTimeSec, 0.0);
    const SimResult ls = Simulator(lsConfig()).run(trace);
    EXPECT_LT(ls.seekTimeSec, nols.seekTimeSec);
}

TEST(Simulator, NullObserverPanics)
{
    Simulator simulator(lsConfig());
    EXPECT_THROW(simulator.addObserver(nullptr), PanicError);
}

TEST(Simulator, MakeTranslationLayerFollowsTheConfig)
{
    // Every TranslationKind as the replay engine and the crash
    // harness build it: a log or a media cache starts at the
    // address-space end, and its geometry is the SimConfig's.
    const Lba end = 1000;
    SimConfig config = nolsConfig();
    const auto nols = makeTranslationLayer(config, end);
    EXPECT_EQ(nols->name(), "conventional");
    const auto in_place = nols->placeWrite({40, 8});
    ASSERT_EQ(in_place.size(), 1u);
    EXPECT_EQ(in_place[0].pba, 40u);

    // 32-sector zones behind 8-sector guards: a 40-sector write
    // fills the first zone and skips one guard.
    config = lsConfig();
    config.zones = ZoneConfig{16 * kKiB, 4 * kKiB};
    const auto ls_layer = makeTranslationLayer(config, end);
    auto *ls = dynamic_cast<LogStructuredLayer *>(ls_layer.get());
    ASSERT_NE(ls, nullptr);
    EXPECT_EQ(ls->logStart(), end);
    const auto placed = ls->placeWrite({0, 40});
    ASSERT_EQ(placed.size(), 2u);
    EXPECT_EQ(placed[0].physical(), (SectorExtent{end, 32}));
    EXPECT_EQ(placed[1].physical(), (SectorExtent{end + 40, 8}));
    EXPECT_EQ(ls->zoneCrossings(), 1u);

    config.translation = TranslationKind::FiniteLogStructured;
    config.finiteLog.capacityBytes = kMiB;
    config.finiteLog.segmentBytes = 128 * kKiB;
    config.finiteLog.gc.policy = gc::CleaningPolicyKind::CostBenefit;
    config.finiteLog.gc.streams = 2;
    const auto fl_layer = makeTranslationLayer(config, end);
    const auto *fl =
        dynamic_cast<const FiniteLogStructuredLayer *>(fl_layer.get());
    ASSERT_NE(fl, nullptr);
    EXPECT_EQ(fl->logStart(), end);
    EXPECT_EQ(fl->segmentSectors(), bytesToSectors(128 * kKiB));
    EXPECT_EQ(fl->segmentCount(), 8u);
    EXPECT_EQ(fl->streamCount(), 2u);
    EXPECT_EQ(fl->policy(), gc::CleaningPolicyKind::CostBenefit);

    // A 128-sector cache merging at half full, in 32-sector bands.
    config.translation = TranslationKind::MediaCache;
    config.mediaCache.cacheBytes = 64 * kKiB;
    config.mediaCache.mergeThreshold = 0.5;
    config.mediaCache.bandBytes = 16 * kKiB;
    const auto mc_layer = makeTranslationLayer(config, end);
    auto *mc = dynamic_cast<MediaCacheLayer *>(mc_layer.get());
    ASSERT_NE(mc, nullptr);
    EXPECT_EQ(mc->cacheStart(), end);
    EXPECT_EQ(mc->placeWrite({0, 63})[0].pba, end);
    EXPECT_TRUE(mc->maintenance().empty());
    mc->placeWrite({100, 1});
    const std::vector<MediaAccess> merge = mc->maintenance();
    ASSERT_FALSE(merge.empty());
    EXPECT_EQ(merge.front().physical, (SectorExtent{0, 32}));
    EXPECT_EQ(mc->mergeCount(), 1u);
}

} // namespace
} // namespace logseek::stl
