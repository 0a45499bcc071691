/**
 * @file
 * Tests for the columnar LSKC trace format: round-trip fidelity,
 * deterministic bytes, zero-copy replay byte-identity against the
 * in-RAM path, format detection/conversion, and a seeded fault
 * sweep (truncation, bit flips, torn prefixes) asserting that no
 * corruption ever crashes the reader or silently alters a replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "stl/simulator.h"
#include "trace/convert.h"
#include "trace/format.h"
#include "trace/lskc.h"
#include "util/fault.h"
#include "util/random.h"

namespace logseek::trace
{
namespace
{

Trace
sampleTrace()
{
    Trace trace("sample");
    trace.appendRead(100, 8, 0);
    trace.appendWrite(5000, 64, 1234);
    trace.appendRead(0, 1, 99999);
    return trace;
}

Trace
randomTrace(std::uint64_t seed, std::size_t ops)
{
    Rng rng(seed);
    Trace trace("fuzz-" + std::to_string(seed));
    for (std::size_t i = 0; i < ops; ++i) {
        const SectorCount count = 1 + rng.nextUint(128);
        const Lba lba = rng.nextUint(1ULL << 30);
        if (rng.nextBool(0.5))
            trace.appendWrite(lba, count, rng.nextUint(1u << 30));
        else
            trace.appendRead(lba, count, rng.nextUint(1u << 30));
    }
    return trace;
}

/** Unique temp path per test to keep parallel ctest runs apart. */
std::string
tempPath(const std::string &tag)
{
    return "/tmp/logseek_lskc_" + tag + "_" +
           std::to_string(::getpid()) + ".lskc";
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(LskcTrace, RoundTripsRecordsExactly)
{
    const Trace original = sampleTrace();
    const std::string path = tempPath("roundtrip");
    ASSERT_TRUE(tryWriteLskcFile(path, original).ok());
    const StatusOr<Trace> parsed = tryReadLskcFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(parsed.value().name(), original.name());
    EXPECT_EQ(parsed.value().addressSpaceEnd(),
              original.addressSpaceEnd());
    ASSERT_EQ(parsed.value().size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(parsed.value()[i], original[i]) << "record " << i;
    std::remove(path.c_str());
}

TEST(LskcTrace, RoundTripsLargeRandomTrace)
{
    const Trace original = randomTrace(7, 5000);
    const std::string path = tempPath("fuzz");
    ASSERT_TRUE(tryWriteLskcFile(path, original).ok());
    const StatusOr<Trace> parsed = tryReadLskcFile(path);
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed.value().size(), original.size());
    for (std::size_t i = 0; i < original.size(); i += 97)
        EXPECT_EQ(parsed.value()[i], original[i]);
    std::remove(path.c_str());
}

TEST(LskcTrace, WriterIsDeterministic)
{
    const Trace trace = randomTrace(11, 500);
    const std::string a = tempPath("det_a");
    const std::string b = tempPath("det_b");
    ASSERT_TRUE(tryWriteLskcFile(a, trace).ok());
    ASSERT_TRUE(tryWriteLskcFile(b, trace).ok());
    EXPECT_EQ(readFileBytes(a), readFileBytes(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(LskcTrace, ZeroCopyReplayIsByteIdenticalToInMemory)
{
    const Trace trace = randomTrace(13, 2000);
    const std::string path = tempPath("replay");
    ASSERT_TRUE(tryWriteLskcFile(path, trace).ok());
    const auto source = LskcSource::tryOpen(path);
    ASSERT_TRUE(source.ok()) << source.status().message();

    stl::SimConfig config;
    stl::Simulator simulator(config);
    const stl::SimResult ram = simulator.run(trace);
    const std::unique_ptr<TraceInput> view =
        source.value()->open();
    const stl::SimResult mapped = simulator.run(*view);
    // operator== compares every counter and the exact bit pattern
    // of seekTimeSec — byte identity, not approximate equality.
    EXPECT_TRUE(ram == mapped);
    std::remove(path.c_str());
}

TEST(LskcTrace, ViewOutlivesSourceAndResets)
{
    const Trace trace = sampleTrace();
    const std::string path = tempPath("outlive");
    ASSERT_TRUE(tryWriteLskcFile(path, trace).ok());
    std::unique_ptr<TraceInput> view;
    {
        const auto source = LskcSource::tryOpen(path);
        ASSERT_TRUE(source.ok());
        view = source.value()->open();
    }
    // The source is gone; the view co-owns the mapping and must
    // still serve (and re-serve, after reset) every record.
    const Trace first = materialize(*view);
    const Trace second = materialize(*view);
    ASSERT_EQ(first.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(first[i], trace[i]);
        EXPECT_EQ(second[i], trace[i]);
    }
    std::remove(path.c_str());
}

TEST(LskcTrace, MissingFileIsTypedNotFound)
{
    const auto source =
        LskcSource::tryOpen("/nonexistent/trace.lskc");
    ASSERT_FALSE(source.ok());
    EXPECT_EQ(source.status().code(), StatusCode::NotFound);
}

TEST(LskcTrace, EmptyFileIsDataLoss)
{
    const std::string path = tempPath("empty");
    writeFileBytes(path, "");
    const auto source = LskcSource::tryOpen(path);
    ASSERT_FALSE(source.ok());
    EXPECT_EQ(source.status().code(), StatusCode::DataLoss);
    std::remove(path.c_str());
}

TEST(LskcTrace, EveryPrefixTruncationIsTypedError)
{
    const std::string path = tempPath("prefix");
    ASSERT_TRUE(tryWriteLskcFile(path, sampleTrace()).ok());
    const std::string bytes = readFileBytes(path);
    // Every strict prefix cuts a section, the header or the
    // preamble short; each must fail with a typed DataLoss, never
    // a crash or a silently shorter trace.
    for (std::size_t length = 0; length < bytes.size(); ++length) {
        writeFileBytes(path, bytes.substr(0, length));
        const auto source = LskcSource::tryOpen(path);
        ASSERT_FALSE(source.ok()) << "prefix length " << length;
        EXPECT_EQ(source.status().code(), StatusCode::DataLoss)
            << "prefix length " << length;
    }
    std::remove(path.c_str());
}

TEST(LskcTrace, ExhaustiveBitFlipsNeverCrashOrCorruptReplay)
{
    const Trace original = sampleTrace();
    const std::string path = tempPath("bitflip");
    ASSERT_TRUE(tryWriteLskcFile(path, original).ok());
    const std::string bytes = readFileBytes(path);
    // Flip every bit of the file in turn. Each flip must either be
    // rejected with a typed error, or — when it lands in the
    // alignment padding no checksum guards — leave the replayed
    // records bit-identical to the original. A flip that opens
    // fine but changes a record would be a silent corruption.
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        std::string flipped = bytes;
        flipped[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(flipped[bit / 8]) ^
            (1u << (bit % 8)));
        writeFileBytes(path, flipped);
        const auto parsed = tryReadLskcFile(path);
        if (!parsed.ok())
            continue;
        ASSERT_EQ(parsed.value().size(), original.size())
            << "bit " << bit;
        for (std::size_t i = 0; i < original.size(); ++i)
            ASSERT_EQ(parsed.value()[i], original[i])
                << "bit " << bit << " record " << i;
    }
    std::remove(path.c_str());
}

TEST(LskcTrace, SeededFaultSweepIsAlwaysTyped)
{
    const Trace original = randomTrace(17, 300);
    const std::string path = tempPath("faults");
    ASSERT_TRUE(tryWriteLskcFile(path, original).ok());
    const std::string bytes = readFileBytes(path);
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        for (const bool flip : {false, true}) {
            const std::string faulty =
                flip ? injectBitFlip(bytes, seed)
                     : injectTruncation(bytes, seed);
            writeFileBytes(path, faulty);
            const auto source = LskcSource::tryOpen(path);
            if (source.ok())
                continue; // padding flip: harmless by design
            EXPECT_TRUE(source.status().code() ==
                            StatusCode::DataLoss ||
                        source.status().code() ==
                            StatusCode::InvalidArgument)
                << "seed " << seed << " flip " << flip << ": "
                << source.status().message();
        }
    }
    std::remove(path.c_str());
}

/** True when /dev/full (writes fail with ENOSPC) can be opened. */
bool
haveDevFull()
{
    return static_cast<bool>(std::ofstream("/dev/full"));
}

TEST(LskcTrace, WriterShortWriteIsUnavailable)
{
    if (!haveDevFull())
        GTEST_SKIP() << "/dev/full cannot be opened";
    // Large enough that a section buffer spills to the device
    // before the final flush.
    const Status status =
        tryWriteLskcFile("/dev/full", randomTrace(23, 100000));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::Unavailable);
    EXPECT_NE(status.message().find("short write"),
              std::string::npos)
        << status.message();
}

TEST(LskcTrace, WriterFlushFailureIsUnavailable)
{
    if (!haveDevFull())
        GTEST_SKIP() << "/dev/full cannot be opened";
    // One record stays buffered until the header is patched in,
    // so the first failing write is the final flush.
    Trace trace("one");
    trace.appendRead(0, 8, 0);
    const Status status = tryWriteLskcFile("/dev/full", trace);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::Unavailable);
    EXPECT_NE(status.message().find("flush failed"),
              std::string::npos)
        << status.message();
}

TEST(LskcTrace, WriterMissingDirectoryIsUnavailable)
{
    const std::string path = "/tmp/logseek_lskc_missing_" +
                             std::to_string(::getpid()) +
                             "/trace.lskc";
    const Status status = tryWriteLskcFile(path, sampleTrace());
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::Unavailable);
    EXPECT_NE(status.message().find("cannot create trace file"),
              std::string::npos)
        << status.message();
}

/** An input that drops its last record from the second pass on,
 *  breaking the reset() contract the writer relies on. */
class ShrinkingInput final : public TraceInput
{
  public:
    explicit ShrinkingInput(const Trace &trace) : trace_(trace) {}

    const std::string &name() const override
    {
        return trace_.name();
    }
    Lba addressSpaceEnd() const override
    {
        return trace_.addressSpaceEnd();
    }
    std::size_t
    next(IoEventBatch &batch, std::size_t max) override
    {
        const std::size_t end =
            passes_ > 1 ? trace_.size() - 1 : trace_.size();
        const std::size_t n = std::min(max, end - pos_);
        if (n == 0)
            return 0;
        batch.buildFrom(trace_, pos_, pos_ + n);
        pos_ += n;
        return n;
    }
    void
    reset() override
    {
        pos_ = 0;
        ++passes_;
    }

  private:
    const Trace &trace_;
    std::size_t pos_ = 0;
    std::size_t passes_ = 0;
};

TEST(LskcTrace, WriterInputThatChangesBetweenPassesIsDataLoss)
{
    const Trace trace = randomTrace(29, 50);
    ShrinkingInput input(trace);
    const std::string path = tempPath("shrinking");
    const Status status = tryWriteLskcFile(path, input);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::DataLoss)
        << status.message();
    std::remove(path.c_str());
}

TEST(LskcTrace, OverLongNameLeavesExistingFileIntact)
{
    const Trace original = randomTrace(31, 2000);
    const std::string path = tempPath("longname");
    ASSERT_TRUE(tryWriteLskcFile(path, original).ok());
    const std::string before = readFileBytes(path);

    Trace renamed = original;
    renamed.setName(std::string(70000, 'n'));
    const Status status = tryWriteLskcFile(path, renamed);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);

    // The rejected write must not have truncated the old file: it
    // still opens and replays exactly as before.
    EXPECT_EQ(readFileBytes(path), before);
    const auto source = LskcSource::tryOpen(path);
    ASSERT_TRUE(source.ok()) << source.status().message();
    stl::Simulator simulator;
    const std::unique_ptr<TraceInput> view = source.value()->open();
    EXPECT_TRUE(simulator.run(*view) == simulator.run(original));
    std::remove(path.c_str());
}

TEST(LskcTrace, FormatSniffRecognizesAllThreeFormats)
{
    const std::string lskc = tempPath("sniff");
    ASSERT_TRUE(tryWriteLskcFile(lskc, sampleTrace()).ok());
    const std::string csv = "/tmp/logseek_lskc_sniff_" +
                            std::to_string(::getpid()) + ".csv";
    writeFileBytes(csv, "0,host,0,Read,4096,8192,100\n");
    // The retired row-major binary format has no reader left: its
    // magic sniffs as CSV, and the CSV parser rejects the bytes.
    const std::string retired = "/tmp/logseek_lskc_sniff_" +
                                std::to_string(::getpid()) + ".lskt";
    writeFileBytes(retired, std::string("LSKT\x01\0\0\0", 8));

    const auto a = resolveTraceFormat(lskc, TraceFormat::Auto);
    const auto b = resolveTraceFormat(retired, TraceFormat::Auto);
    const auto c = resolveTraceFormat(csv, TraceFormat::Auto);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(a.value(), TraceFormat::Lskc);
    EXPECT_EQ(b.value(), TraceFormat::Csv);
    EXPECT_EQ(c.value(), TraceFormat::Csv);
    EXPECT_EQ(formatFromPath(retired), TraceFormat::Auto);
    // A declared format always wins over the sniff.
    const auto declared = resolveTraceFormat(csv, TraceFormat::Lskc);
    ASSERT_TRUE(declared.ok());
    EXPECT_EQ(declared.value(), TraceFormat::Lskc);

    std::remove(lskc.c_str());
    std::remove(retired.c_str());
    std::remove(csv.c_str());
}

TEST(LskcTrace, ConversionRoundTripPreservesRecords)
{
    // CSV timestamps are relative to the first record's, so the
    // fixture's clock starts at 0 and never runs backwards.
    const Trace shuffled = randomTrace(19, 400);
    Trace original("conv");
    for (std::size_t i = 0; i < shuffled.size(); ++i)
        original.append(
            IoRecord{i * 7, shuffled[i].type, shuffled[i].extent});
    const std::string csv = "/tmp/logseek_lskc_conv_" +
                            std::to_string(::getpid()) + ".csv";
    const std::string lskc = tempPath("conv");
    ASSERT_TRUE(tryWriteTraceFile(csv, original).ok());

    const auto summary = tryConvertTraceFile(csv, lskc);
    ASSERT_TRUE(summary.ok()) << summary.status().message();
    EXPECT_EQ(summary.value().inFormat, TraceFormat::Csv);
    EXPECT_EQ(summary.value().outFormat, TraceFormat::Lskc);
    EXPECT_EQ(summary.value().records, original.size());

    const auto parsed = tryReadLskcFile(lskc);
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed.value().size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(parsed.value()[i], original[i]);

    // Reconverting LSKC to LSKC canonicalizes deterministically.
    const std::string again = tempPath("conv2");
    const auto re = tryConvertTraceFile(lskc, again,
                                        TraceFormat::Auto,
                                        TraceFormat::Lskc);
    ASSERT_TRUE(re.ok());
    EXPECT_EQ(readFileBytes(lskc), readFileBytes(again));

    std::remove(csv.c_str());
    std::remove(lskc.c_str());
    std::remove(again.c_str());
}

TEST(LskcTrace, ParseTraceFormatIsStrict)
{
    EXPECT_TRUE(parseTraceFormat("auto").ok());
    EXPECT_TRUE(parseTraceFormat("csv").ok());
    EXPECT_TRUE(parseTraceFormat("lskc").ok());
    for (const char *bad :
         {"", "CSV", "Lskc", "binary", "lsk", "lskt"}) {
        const auto parsed = parseTraceFormat(bad);
        ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
        EXPECT_EQ(parsed.status().code(),
                  StatusCode::InvalidArgument);
        EXPECT_NE(parsed.status().message().find("auto, csv or lskc"),
                  std::string::npos)
            << parsed.status().message();
    }
}

} // namespace
} // namespace logseek::trace
