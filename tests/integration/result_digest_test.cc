/**
 * @file
 * Pinned SimResult bytes: a fixed generated trace is replayed under
 * a matrix of configurations, and a digest of every SimResult field
 * (seekTimeSec by bit pattern), of every IoEvent the observers see
 * and, where a journal is attached, of the journal image is
 * compared against recorded constants.
 *
 * The constants are a contract, not a snapshot to refresh: a
 * change to the replay core that is meant to be an execution
 * strategy only (how records are pulled, translated or accounted)
 * must leave every digest untouched. Only a deliberate modeling
 * change may re-record them, and it must say so.
 *
 * The matrix covers the paths whose results are easiest to perturb
 * by accident: the media cache with merges, the log-structured
 * layer with guard-banded zones, LS+defrag (a read mutates the
 * translation it was served from), the finite log under every
 * cleaning policy at one and two placement streams, the zoned
 * device at a non-zero fault rate, and a journal checked by the
 * paranoid Fsck.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "disk/zoned_device.h"
#include "stl/segment_journal.h"
#include "stl/simulator.h"
#include "util/random.h"

namespace logseek::stl
{
namespace
{

/** FNV-1a, 64-bit, fed little-endian words. */
class Digest
{
  public:
    void
    add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            addByte(static_cast<unsigned char>(value >> (8 * i)));
    }

    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

    void
    add(const std::string &bytes)
    {
        add(static_cast<std::uint64_t>(bytes.size()));
        for (const char c : bytes)
            addByte(static_cast<unsigned char>(c));
    }

    void
    add(const SectorExtent &extent)
    {
        add(extent.start);
        add(extent.count);
    }

    void
    add(const Segment &segment)
    {
        add(segment.logical);
        add(segment.pba);
        add(static_cast<std::uint64_t>(segment.mapped));
    }

    std::uint64_t value() const { return hash_; }

  private:
    void
    addByte(unsigned char byte)
    {
        hash_ ^= byte;
        hash_ *= 0x100000001b3ULL;
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Every SimResult field, in declaration order. */
std::uint64_t
resultDigest(const SimResult &r)
{
    Digest d;
    forEachField(r, [&](const char *, const auto &value) {
        d.add(value);
    });
    return d.value();
}

/** Folds every field of every delivered IoEvent into one digest. */
class EventDigest : public SimObserver
{
  public:
    void
    onEvent(const IoEvent &e) override
    {
        digest_.add(e.opIndex);
        digest_.add(e.record.timestampUs);
        digest_.add(static_cast<std::uint64_t>(e.record.type));
        digest_.add(e.record.extent);
        digest_.add(static_cast<std::uint64_t>(e.segments.size()));
        for (const Segment &segment : e.segments)
            digest_.add(segment);
        digest_.add(static_cast<std::uint64_t>(e.seeks.size()));
        for (const disk::SeekInfo &seek : e.seeks) {
            digest_.add(static_cast<std::uint64_t>(seek.seeked));
            digest_.add(static_cast<std::uint64_t>(seek.distanceBytes));
            digest_.add(static_cast<std::uint64_t>(seek.type));
        }
        digest_.add(static_cast<std::uint64_t>(e.cacheHits));
        digest_.add(static_cast<std::uint64_t>(e.prefetchHits));
        digest_.add(static_cast<std::uint64_t>(e.defragRewrite));
        digest_.add(
            static_cast<std::uint64_t>(e.defragSegments.size()));
        for (const Segment &segment : e.defragSegments)
            digest_.add(segment);
        digest_.add(static_cast<std::uint64_t>(e.cleaningSeeks));
        digest_.add(e.mediaBytes);
        digest_.add(static_cast<std::uint64_t>(e.deviceRetries));
        digest_.add(static_cast<std::uint64_t>(e.deviceFailedSectors));
        ++events_;
    }

    std::uint64_t value() const { return digest_.value(); }
    std::uint64_t events() const { return events_; }

  private:
    Digest digest_;
    std::uint64_t events_ = 0;
};

/**
 * A fixed mixed trace over `space` sectors: sequential write and
 * read streams, small hot-set and scattered overwrites that
 * fragment the log (and leave every cleaning victim partly live),
 * and wide reads across the hot set that come back in many pieces.
 */
trace::Trace
generatedTrace(const std::string &name, std::uint64_t seed,
               std::size_t ops, Lba space, double write_fraction)
{
    Rng rng(seed);
    trace::Trace trace(name);
    const Lba hot_begin = space / 4;
    const Lba hot_span = space / 8;
    Lba write_cursor = 0;
    Lba read_cursor = space / 2;
    std::uint64_t ts = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        ts += 1 + rng.nextUint(500);
        const double pick = rng.nextDouble();
        if (rng.nextBool(write_fraction)) {
            SectorCount count = 0;
            Lba lba = 0;
            if (pick < 0.4) {
                count = 8 + rng.nextUint(56);
                if (write_cursor + count > space)
                    write_cursor = 0;
                lba = write_cursor;
                write_cursor += count;
            } else if (pick < 0.7) {
                count = 1 + rng.nextUint(16);
                lba = hot_begin + rng.nextUint(hot_span - count);
            } else {
                count = 1 + rng.nextUint(32);
                lba = rng.nextUint(space - count);
            }
            trace.appendWrite(lba, count, ts);
        } else {
            SectorCount count = 0;
            Lba lba = 0;
            if (pick < 0.4) {
                count = 16 + rng.nextUint(240);
                lba = hot_begin + rng.nextUint(hot_span - count);
            } else if (pick < 0.8) {
                count = 8 + rng.nextUint(56);
                if (read_cursor + count > space)
                    read_cursor = 0;
                lba = read_cursor;
                read_cursor += count;
            } else {
                count = 1 + rng.nextUint(64);
                lba = rng.nextUint(space - count);
            }
            trace.appendRead(lba, count, ts);
        }
    }
    return trace;
}

/** The zoned device at a non-zero fault rate (transient, grown
 *  and write-pointer divergence faults, as device_fault_sweep
 *  draws them from one rate). */
disk::ZonedDeviceOptions
faultyDevice(double rate)
{
    disk::ZonedDeviceOptions options;
    options.faults.seed = 0xd16e57;
    options.faults.transientRate = rate;
    options.faults.grownRate = rate / 10.0;
    options.faults.offlineShare = 0.25;
    options.faults.wpDivergenceRate = rate;
    return options;
}

/** One pinned cell of the matrix. */
struct Cell
{
    const char *name;
    SimConfig config;
    bool journal = false;
    std::uint64_t result = 0;
    std::uint64_t events = 0;
    std::uint64_t journalImage = 0;
};

/**
 * Replay every cell, compare its three digests and return the
 * results by cell name, so a test can check that the paths it
 * claims to pin really ran.
 */
std::map<std::string, SimResult>
expectPinned(const trace::Trace &trace, std::vector<Cell> cells)
{
    std::map<std::string, SimResult> results;
    for (Cell &cell : cells) {
        SegmentJournal journal;
        if (cell.journal) {
            cell.config.journal = &journal;
            cell.config.paranoidFsck = true;
        }
        EventDigest events;
        Simulator simulator(cell.config);
        simulator.addObserver(&events);
        const SimResult result = simulator.run(trace);
        EXPECT_EQ(events.events(), result.reads + result.writes)
            << cell.name;
        std::uint64_t journal_image = 0;
        if (cell.journal) {
            Digest d;
            d.add(journal.image());
            journal_image = d.value();
        }
        char actual[128];
        std::snprintf(actual, sizeof actual,
                      "actual {0x%016llxULL, 0x%016llxULL, "
                      "0x%016llxULL}",
                      static_cast<unsigned long long>(
                          resultDigest(result)),
                      static_cast<unsigned long long>(events.value()),
                      static_cast<unsigned long long>(journal_image));
        EXPECT_EQ(resultDigest(result), cell.result)
            << cell.name << " SimResult digest; " << actual;
        EXPECT_EQ(events.value(), cell.events)
            << cell.name << " event digest; " << actual;
        EXPECT_EQ(journal_image, cell.journalImage)
            << cell.name << " journal digest; " << actual;
        results.emplace(cell.name, result);
    }
    return results;
}

SimConfig
config(TranslationKind kind)
{
    SimConfig c;
    c.translation = kind;
    return c;
}

TEST(ResultDigest, MixedTraceMatchesPinnedDigests)
{
    const trace::Trace trace =
        generatedTrace("digest-mixed", 0xd1e57, 12000, 1 << 20, 0.35);

    SimConfig ls = config(TranslationKind::LogStructured);
    SimConfig defrag = ls;
    defrag.defrag = DefragConfig{};
    SimConfig prefetch = ls;
    prefetch.prefetch = PrefetchConfig{};
    SimConfig cache = ls;
    cache.cache = SelectiveCacheConfig{2 * kMiB};
    SimConfig all = defrag;
    all.prefetch = PrefetchConfig{};
    all.cache = SelectiveCacheConfig{2 * kMiB};
    SimConfig zoned = ls;
    zoned.zones = ZoneConfig{2 * kMiB, 128 * kKiB};
    SimConfig zoned_all = all;
    zoned_all.zones = zoned.zones;
    SimConfig media_cache = config(TranslationKind::MediaCache);
    media_cache.mediaCache.cacheBytes = 4 * kMiB;
    SimConfig nols_faulty = config(TranslationKind::Conventional);
    nols_faulty.zonedDevice = faultyDevice(0.01);
    SimConfig ls_faulty = all;
    ls_faulty.zonedDevice = faultyDevice(0.01);
    SimConfig zoned_faulty = zoned;
    zoned_faulty.zonedDevice = faultyDevice(0.01);
    SimConfig mc_faulty = media_cache;
    mc_faulty.zonedDevice = faultyDevice(0.01);

    const auto r = expectPinned(
        trace,
        {
            {"NoLS", config(TranslationKind::Conventional), false,
             0x2302e0f1b738a101ULL, 0x2e21fec120d46305ULL, 0},
            {"LS", ls, false, 0x54fd90c84e60d60bULL,
             0x425dbbbc326471ebULL, 0},
            {"LS+defrag", defrag, false, 0xfc41ecc9e2f0a283ULL,
             0x6992124f4cb45f96ULL, 0},
            {"LS+prefetch", prefetch, false, 0x2646ae5e3c5865e1ULL,
             0xf258ef39e911f9f8ULL, 0},
            {"LS+cache", cache, false, 0xa665c1ebe475f1c5ULL,
             0xfe1ee94a2d553882ULL, 0},
            {"LS+all", all, false, 0x3fcdcd3dc205069bULL,
             0xce9d13ed7374154bULL, 0},
            {"LS zoned", zoned, false, 0x72bd916c2815fcabULL,
             0x9996ba2fdc8e7671ULL, 0},
            {"LS+all zoned", zoned_all, false, 0x59ec90707ee13219ULL,
             0x743eef4b4d68f209ULL, 0},
            {"media cache", media_cache, false, 0xdaa68189ddab4bd3ULL,
             0xa413664bf2108362ULL, 0},
            {"NoLS faulty device", nols_faulty, false, 0xe210b963a07b17a2ULL,
             0x0063ef97d88b2450ULL, 0},
            {"LS+all faulty device", ls_faulty, false, 0x81e12bd8efefe852ULL,
             0xc6b010bcc23d087fULL, 0},
            {"LS zoned faulty device", zoned_faulty, false,
             0xdb9a4fc708d1ec91ULL, 0x7d7614afa1d3fcf8ULL, 0},
            {"media cache faulty device", mc_faulty, false,
             0x22f733e0f552118eULL, 0x853d4aee8ce7869bULL, 0},
            {"LS journal", ls, true, 0x54fd90c84e60d60bULL,
             0x425dbbbc326471ebULL, 0xa799e4ecc4d2b2e1ULL},
            {"LS+all zoned journal", zoned_all, true, 0x59ec90707ee13219ULL,
             0x743eef4b4d68f209ULL, 0xa863a8c6ea1bebaaULL},
            {"media cache journal", media_cache, true, 0xdaa68189ddab4bd3ULL,
             0xa413664bf2108362ULL, 0x4ac062774cd48078ULL},
        });

    // The pinned paths really ran.
    EXPECT_GT(r.at("LS").fragmentedReads, 0U);
    EXPECT_GT(r.at("LS+defrag").defragRewrites, 0U);
    EXPECT_GT(r.at("LS+prefetch").prefetchHits, 0U);
    EXPECT_GT(r.at("LS+cache").cacheHits, 0U);
    EXPECT_LT(r.at("LS zoned").writeSeeks,
              r.at("LS zoned").writes);
    EXPECT_GT(r.at("LS zoned").writeSeeks, r.at("LS").writeSeeks);
    EXPECT_GT(r.at("media cache").cleaningMerges, 0U);
    EXPECT_GT(r.at("LS+all faulty device").deviceReadRetries, 0U);
    EXPECT_GT(r.at("LS+all faulty device").deviceGrownDefects, 0U);
}

TEST(ResultDigest, ChurnTraceMatchesPinnedDigests)
{
    // A small LBA space under heavy writes: the whole 8 MiB space
    // is live in a 12 MiB finite log that sees several times its
    // capacity in writes, so every cleaning policy runs repeatedly
    // against partly-live victims.
    const trace::Trace trace =
        generatedTrace("digest-churn", 0xc4a2, 16000, 1 << 14, 0.7);

    const auto finite = [](gc::CleaningPolicyKind policy,
                           std::uint32_t streams) {
        SimConfig c = config(TranslationKind::FiniteLogStructured);
        c.finiteLog.capacityBytes = 12 * kMiB;
        c.finiteLog.segmentBytes = 512 * kKiB;
        c.finiteLog.gc.policy = policy;
        c.finiteLog.gc.streams = streams;
        return c;
    };
    using gc::CleaningPolicyKind;
    SimConfig fl_all = finite(CleaningPolicyKind::CostBenefit, 2);
    fl_all.defrag = DefragConfig{};
    fl_all.prefetch = PrefetchConfig{};
    fl_all.cache = SelectiveCacheConfig{2 * kMiB};
    SimConfig fl_faulty = finite(CleaningPolicyKind::Greedy, 1);
    fl_faulty.zonedDevice = faultyDevice(0.01);
    SimConfig media_cache = config(TranslationKind::MediaCache);
    media_cache.mediaCache.cacheBytes = 4 * kMiB;
    SimConfig ls_defrag = config(TranslationKind::LogStructured);
    ls_defrag.defrag = DefragConfig{};

    const auto r = expectPinned(
        trace,
        {
            {"FL greedy x1", finite(CleaningPolicyKind::Greedy, 1), false,
             0x74a19c6339313f11ULL, 0x0a73c7faef046136ULL, 0},
            {"FL greedy x2", finite(CleaningPolicyKind::Greedy, 2), false,
             0xcd242b6a9f6247afULL, 0x7bf6e1ebbb5e5dc3ULL, 0},
            {"FL cost-benefit x1", finite(CleaningPolicyKind::CostBenefit, 1),
             false, 0x3500546d199f8818ULL, 0x27acf387ca326172ULL, 0},
            {"FL cost-benefit x2", finite(CleaningPolicyKind::CostBenefit, 2),
             false, 0x6f75b7fbcd26d98dULL, 0xeafa8b1d2f1a4d7bULL, 0},
            {"FL zone-granular x1",
             finite(CleaningPolicyKind::ZoneGranular, 1), false,
             0x56671e6ea5fae4f8ULL, 0x08343fd84e5f8570ULL, 0},
            {"FL zone-granular x2",
             finite(CleaningPolicyKind::ZoneGranular, 2), false,
             0xb545f706899c6903ULL, 0xe8d750232c938a8cULL, 0},
            {"FL+all cost-benefit x2", fl_all, false, 0x4c5c10d72802b120ULL,
             0xd6a4058747507d20ULL, 0},
            {"FL faulty device", fl_faulty, false, 0x61b8f51dd3945ca4ULL,
             0x2cda7c6666d67eafULL, 0},
            {"FL journal", finite(CleaningPolicyKind::ZoneGranular, 2), true,
             0xb545f706899c6903ULL, 0xe8d750232c938a8cULL,
             0x631d46a6eb66d6cbULL},
            {"media cache", media_cache, false, 0x89fefa57749d51c8ULL,
             0x1912ad7fea152654ULL, 0},
            {"LS+defrag", ls_defrag, false, 0x12965d0360006cc7ULL,
             0x2e5301ec0aefb807ULL, 0},
        });

    for (const char *name :
         {"FL greedy x1", "FL greedy x2", "FL cost-benefit x1",
          "FL cost-benefit x2", "FL zone-granular x1",
          "FL zone-granular x2", "FL journal"}) {
        EXPECT_GT(r.at(name).cleaningMerges, 0U) << name;
        EXPECT_GT(r.at(name).cleaningSeeks, 0U) << name;
    }
    EXPECT_GT(r.at("FL+all cost-benefit x2").defragRewrites, 0U);
    EXPECT_GT(r.at("FL faulty device").deviceReadRetries, 0U);
    EXPECT_GT(r.at("media cache").cleaningMerges, 0U);
}

} // namespace
} // namespace logseek::stl
