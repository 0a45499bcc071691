/**
 * @file
 * The replay hot path's "zero per-record heap allocations" promise,
 * measured with a counting global operator new.
 *
 * This file replaces the global allocation functions for its whole
 * executable, which is why it is a test binary of its own: no other
 * suite runs under the counter. Every replaceable form of operator
 * new that does not forward to another one is counted; the deletes
 * are replaced so each allocation is freed by its own family.
 *
 * Two promises are pinned:
 *  - a passing panicIf() builds no message, however long its
 *    literal (a std::string parameter allocated past 15 characters
 *    on every call, taken or not);
 *  - a Simulator::run() allocates fewer than 0.05 times per record
 *    for NoLS, LS and LS with every read mechanism, and fewer than
 *    0.25 times for both finite logs of the benchmark. The profiles
 *    are large enough that a run's fixed set-up (the layer, its
 *    tables, the result's strings: 100 to 600 allocations) is
 *    noise. The finite logs' bound leaves room for maintenance()'s
 *    per-pass vector, which allocates only while cleaning: about
 *    0.13 per record on w36 and 0.02 on w33. Before panicIf took a
 *    literal and the stream router a flat table, these runs read 2
 *    to 25 allocations per record.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "stl/extent_map.h"
#include "stl/simulator.h"
#include "util/logging.h"
#include "workloads/profiles.h"

namespace
{

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(
                        align, (size + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace logseek::stl
{
namespace
{

std::uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

TEST(HotPathAllocations, CounterSeesOperatorNew)
{
    // Positive control: a heap string past the small-string buffer
    // must register, or the zero below would prove nothing.
    const std::uint64_t before = allocations();
    const auto *volatile text =
        new std::string(64, 'x'); // two allocations
    delete text;
    EXPECT_GE(allocations() - before, 2U);
}

TEST(HotPathAllocations, PassingPanicIfBuildsNoMessage)
{
    volatile bool fail = false;
    const std::uint64_t before = allocations();
    for (int i = 0; i < 1000; ++i)
        panicIf(fail, "a message much longer than fifteen characters");
    EXPECT_EQ(allocations() - before, 0U);
}

/** One cell of the per-record bound. */
struct Cell
{
    const char *name;
    SimConfig config;

    /** Allocations per record the run must stay under. */
    double bound;
};

/** The finite-log geometry perfbench's write-churn uses: the
 *  trace's write footprint at 90% utilization, 128 segments of at
 *  most 4 MiB, reserve 2 and target 4. */
FiniteLogConfig
sizedFiniteLog(const trace::Trace &trace, gc::CleaningPolicyKind policy,
               std::uint32_t streams)
{
    ExtentMap footprint;
    for (const auto &record : trace)
        if (record.isWrite())
            footprint.mapRange(record.extent.start, record.extent.start,
                               record.extent.count);
    const std::uint64_t raw = std::max<std::uint64_t>(
        8 * kMiB, sectorsToBytes(footprint.mappedSectors()) * 100 / 90);
    FiniteLogConfig config;
    config.segmentBytes =
        std::clamp<std::uint64_t>(raw / 128, 64 * kKiB, 4 * kMiB);
    config.segmentBytes -= config.segmentBytes % (64 * kKiB);
    config.capacityBytes = (raw + config.segmentBytes - 1) /
                           config.segmentBytes * config.segmentBytes;
    config.cleanReserveSegments = 2;
    config.cleanTargetSegments = 4;
    config.gc.policy = policy;
    config.gc.streams = streams;
    return config;
}

void
expectFewAllocationsPerRecord(const std::string &profile)
{
    workloads::ProfileOptions options;
    options.scale = 0.01;
    const trace::Trace trace = workloads::makeWorkload(profile, options);
    ASSERT_GT(trace.size(), 20000U);

    SimConfig nols;
    nols.translation = TranslationKind::Conventional;
    SimConfig ls;
    SimConfig ls_all;
    ls_all.defrag = DefragConfig{};
    ls_all.prefetch = PrefetchConfig{};
    ls_all.cache = SelectiveCacheConfig{64 * kMiB};
    SimConfig fl_greedy;
    fl_greedy.translation = TranslationKind::FiniteLogStructured;
    fl_greedy.finiteLog =
        sizedFiniteLog(trace, gc::CleaningPolicyKind::Greedy, 1);
    SimConfig fl_cb2_zoned;
    fl_cb2_zoned.translation = TranslationKind::FiniteLogStructured;
    fl_cb2_zoned.finiteLog =
        sizedFiniteLog(trace, gc::CleaningPolicyKind::CostBenefit, 2);
    fl_cb2_zoned.zonedDevice = disk::ZonedDeviceOptions{};

    const Cell cells[] = {
        {"nols", nols, 0.05},
        {"ls", ls, 0.05},
        {"ls_all", ls_all, 0.05},
        {"fl_greedy", fl_greedy, 0.25},
        {"fl_cb2_zoned", fl_cb2_zoned, 0.25},
    };
    for (const Cell &cell : cells) {
        SCOPED_TRACE(cell.name);
        Simulator sim(cell.config);
        const std::uint64_t before = allocations();
        const SimResult result = sim.run(trace);
        const std::uint64_t used = allocations() - before;
        const double per_record =
            static_cast<double>(used) / static_cast<double>(trace.size());
        EXPECT_EQ(result.reads + result.writes, trace.size());
        EXPECT_LT(per_record, cell.bound)
            << profile << " " << cell.name << ": " << used
            << " allocations over " << trace.size() << " records";
    }
}

TEST(HotPathAllocations, ReplayOfWriteHeavyProfile)
{
    expectFewAllocationsPerRecord("w36");
}

TEST(HotPathAllocations, ReplayOfMixedProfile)
{
    expectFewAllocationsPerRecord("w33");
}

} // namespace
} // namespace logseek::stl
