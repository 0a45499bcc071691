/**
 * @file
 * Fault-injection sweep over the CSV trace parser: seeded
 * truncations, bit-flips and short reads, plus files that are not
 * CSV at all. Every injected fault must surface as a typed Status
 * error or a counted skip — never undefined behavior, never a
 * crash, never an uncaught exception. The LSKC reader's own fault
 * sweeps live in tests/trace/lskc_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "stl/simulator.h"
#include "trace/convert.h"
#include "trace/msr_csv.h"
#include "util/fault.h"

namespace logseek::trace
{
namespace
{

/** A small but non-trivial trace to corrupt. */
Trace
victimTrace()
{
    Trace trace("victim");
    trace.appendRead(100, 8, 0);
    trace.appendWrite(5000, 64, 10);
    trace.appendRead(0, 1, 20);
    trace.appendWrite(77, 16, 30);
    trace.appendRead(4096, 32, 40);
    return trace;
}

std::string
csvBytes(const Trace &trace)
{
    std::ostringstream buffer;
    writeMsrCsv(buffer, trace);
    return buffer.str();
}

/**
 * Feed corrupted bytes to the CSV parser; the parse must either
 * succeed or fail with a typed status — anything escaping as an
 * exception fails the sweep. Returns the status for extra checks.
 */
Status
sweepCsv(const std::string &bytes, const MsrCsvOptions &options,
         FaultKind kind, std::uint64_t seed)
{
    std::istringstream in(bytes);
    Status status;
    EXPECT_NO_THROW({
        const StatusOr<MsrParseResult> result =
            tryParseMsrCsv(in, "victim", options);
        if (result.ok()) {
            // A parse that succeeds on corrupt bytes must still
            // yield a trace the replay layer can at least vet
            // without crashing.
            EXPECT_NO_THROW(
                stl::Simulator::validateTrace(result.value().trace));
        } else {
            status = result.status();
        }
    }) << toString(kind) << " seed " << seed;
    return status;
}

TEST(FaultInjection, CsvSeededTruncationStrictMode)
{
    const std::string bytes = csvBytes(victimTrace());
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        // Strict mode: a cut mid-line is DataLoss; a cut exactly at
        // a line boundary (or inside trailing digits that still
        // parse) can legitimately succeed with fewer records.
        sweepCsv(injectTruncation(bytes, seed), MsrCsvOptions{},
                 FaultKind::Truncate, seed);
    }
}

TEST(FaultInjection, CsvSeededTruncationSkipMode)
{
    const std::string bytes = csvBytes(victimTrace());
    MsrCsvOptions options;
    options.skipMalformed = true;
    options.maxWarnings = 0; // keep the test log quiet
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const std::string cut = injectTruncation(bytes, seed);
        std::istringstream in(cut);
        const StatusOr<MsrParseResult> result =
            tryParseMsrCsv(in, "victim", options);
        // With skipping enabled and a generous budget, truncation
        // can only shrink the trace. It fails only when the cut
        // keeps no whole line: a torn first line and nothing else
        // is no trace at all.
        if (!result.ok()) {
            EXPECT_EQ(result.status().code(), StatusCode::DataLoss)
                << "seed " << seed;
            EXPECT_EQ(cut.find('\n'), std::string::npos)
                << "seed " << seed;
            continue;
        }
        const MsrParseSummary &summary = result.value().summary;
        EXPECT_EQ(summary.parsed + summary.skipped, summary.lines)
            << "seed " << seed;
    }
}

TEST(FaultInjection, CsvSeededBitFlipsBothModes)
{
    const std::string bytes = csvBytes(victimTrace());
    MsrCsvOptions skip;
    skip.skipMalformed = true;
    skip.maxWarnings = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const std::string flipped = injectBitFlip(bytes, seed);
        sweepCsv(flipped, MsrCsvOptions{}, FaultKind::BitFlip,
                 seed);
        sweepCsv(flipped, skip, FaultKind::BitFlip, seed);
    }
}

TEST(FaultInjection, CsvSurvivesShortReads)
{
    const Trace victim = victimTrace();
    const std::string bytes = csvBytes(victim);
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        ShortReadStream in(bytes, seed, 3);
        const StatusOr<MsrParseResult> result =
            tryParseMsrCsv(in, "victim");
        ASSERT_TRUE(result.ok()) << "seed " << seed;
        EXPECT_EQ(result.value().trace.size(), victim.size())
            << "seed " << seed;
    }
}

TEST(FaultInjection, CsvErrorBudgetRejectsMostlyGarbageTrace)
{
    // 100 garbage lines with a budget of 10: the trace must be
    // rejected with ResourceExhausted, not silently shrunk.
    std::string bytes;
    for (int i = 0; i < 100; ++i)
        bytes += "garbage line " + std::to_string(i) + "\n";
    MsrCsvOptions options;
    options.skipMalformed = true;
    options.errorBudget = 10;
    options.maxWarnings = 0;
    std::istringstream in(bytes);
    const StatusOr<MsrParseResult> result =
        tryParseMsrCsv(in, "garbage", options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::ResourceExhausted);
}

/**
 * The bytes of a trace in the retired row-major binary format: the
 * "LSKT" magic, version 1, a name, a record count and fixed-width
 * little-endian records. Such a file now sniffs as CSV.
 */
std::string
oldLsktBytes(const Trace &trace)
{
    std::string bytes = "LSKT";
    auto put = [&bytes](std::uint64_t value, int width) {
        for (int i = 0; i < width; ++i)
            bytes.push_back(static_cast<char>(value >> (8 * i)));
    };
    put(1, 4);
    put(trace.name().size(), 4);
    bytes += trace.name();
    put(trace.size(), 8);
    for (const IoRecord &record : trace) {
        put(record.timestampUs, 8);
        put(record.isWrite() ? 1 : 0, 1);
        put(record.extent.start, 8);
        put(record.extent.count, 8);
    }
    return bytes;
}

TEST(FaultInjection, CsvSkipModeRejectsTraceWithNoValidLine)
{
    // Fewer malformed lines than the error budget, and not one
    // valid line: skip mode must not return an empty trace.
    MsrCsvOptions options;
    options.skipMalformed = true;
    options.maxWarnings = 0;
    for (const std::string &bytes :
         {std::string("garbage\n,,,,,,\n0,h,0,Erase,0,512,0\n"),
          oldLsktBytes(victimTrace())}) {
        std::istringstream in(bytes);
        const StatusOr<MsrParseResult> result =
            tryParseMsrCsv(in, "garbage", options);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::DataLoss)
            << result.status().message();
    }
}

TEST(FaultInjection, OldLsktFileIsTypedErrorInBothModes)
{
    const std::string path = "/tmp/logseek_fault_old_lskt_" +
                             std::to_string(::getpid()) + ".lskt";
    {
        std::ofstream out(path, std::ios::binary);
        out << oldLsktBytes(victimTrace());
    }
    // Strict mode: tryLoadTraceFile sniffs CSV and fails at line 1.
    const StatusOr<Trace> strict = tryLoadTraceFile(path);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::DataLoss);

    MsrCsvOptions skip;
    skip.skipMalformed = true;
    skip.maxWarnings = 0;
    const StatusOr<MsrParseResult> skipped =
        tryParseMsrCsvFile(path, "old", skip);
    ASSERT_FALSE(skipped.ok());
    EXPECT_EQ(skipped.status().code(), StatusCode::DataLoss);
    std::remove(path.c_str());
}

TEST(FaultInjection, ReplayRejectsOverflowingTraceWithTypedError)
{
    // A corrupted-but-parseable trace whose sector range overflows
    // must be rejected by tryRun up front, not crash the replay.
    Trace bad("overflow");
    bad.append(IoRecord{0, IoType::Read,
                        SectorExtent{~0ULL - 4, 100}});
    stl::Simulator simulator;
    const StatusOr<stl::SimResult> result = simulator.tryRun(bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::InvalidArgument);
}

} // namespace
} // namespace logseek::trace
