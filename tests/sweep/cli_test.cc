/**
 * @file
 * Tests for the shared bench CLI surface: positional scale/seed,
 * --jobs, --json/--csv destinations, --paranoid, the
 * observability flags (--metrics-out/--trace-out/--help), and
 * strict rejection of malformed numbers and unknown arguments
 * (including the retired fault-tolerance and trace-export flags).
 * The help-sync test pins benchHelp()/benchUsage() to
 * benchFlagNames() so the documented surface cannot drift from
 * what the parser accepts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "analysis/validating_observer.h"
#include "sweep/cli.h"

namespace logseek::sweep
{
namespace
{

std::optional<BenchCli>
parse(std::vector<const char *> args, double default_scale = 0.02)
{
    args.insert(args.begin(), "bench");
    return parseBenchCli(static_cast<int>(args.size()),
                         const_cast<char **>(args.data()), "usage",
                         default_scale);
}

StatusOr<BenchCli>
tryParse(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    return tryParseBenchCli(static_cast<int>(args.size()),
                            const_cast<char **>(args.data()));
}

TEST(BenchCliTest, DefaultsApply)
{
    const auto cli = parse({});
    ASSERT_TRUE(cli.has_value());
    EXPECT_DOUBLE_EQ(cli->profile.scale, 0.02);
    EXPECT_EQ(cli->jobs, 1);
    EXPECT_FALSE(cli->paranoid);
    EXPECT_FALSE(cli->jsonPath.has_value());
    EXPECT_FALSE(cli->csvPath.has_value());
    EXPECT_GE(cli->resolvedJobs(), 1);
}

TEST(BenchCliTest, CustomDefaultScale)
{
    const auto cli = parse({}, 0.01);
    ASSERT_TRUE(cli.has_value());
    EXPECT_DOUBLE_EQ(cli->profile.scale, 0.01);
}

TEST(BenchCliTest, PositionalScaleAndSeed)
{
    const auto cli = parse({"0.004", "17"});
    ASSERT_TRUE(cli.has_value());
    EXPECT_DOUBLE_EQ(cli->profile.scale, 0.004);
    EXPECT_EQ(cli->profile.seed, 17u);
}

TEST(BenchCliTest, JobsBothSpellings)
{
    auto cli = parse({"--jobs", "8"});
    ASSERT_TRUE(cli.has_value());
    EXPECT_EQ(cli->jobs, 8);
    EXPECT_EQ(cli->resolvedJobs(), 8);

    cli = parse({"--jobs=3"});
    ASSERT_TRUE(cli.has_value());
    EXPECT_EQ(cli->jobs, 3);

    // Hardware concurrency is spelled "auto", never 0.
    cli = parse({"--jobs=auto"});
    ASSERT_TRUE(cli.has_value());
    EXPECT_EQ(cli->jobs, 0);
    EXPECT_GE(cli->resolvedJobs(), 1);
}

TEST(BenchCliTest, JobsRejectsZeroNegativeAndGarbage)
{
    for (const char *bad : {"0", "-1", "-8", "two", "4x", "",
                            "4.5", "99999999999999999999"}) {
        const StatusOr<BenchCli> cli = tryParse({"--jobs", bad});
        EXPECT_FALSE(cli.ok()) << "--jobs " << bad;
        EXPECT_EQ(cli.status().code(), StatusCode::InvalidArgument)
            << "--jobs " << bad;
    }
    // The error message names the flag.
    const StatusOr<BenchCli> cli = tryParse({"--jobs=0"});
    ASSERT_FALSE(cli.ok());
    EXPECT_NE(cli.status().message().find("--jobs"),
              std::string::npos);
}

TEST(BenchCliTest, RejectsRetiredFlags)
{
    // Each sweep cell runs once, so there is no per-cell deadline,
    // retry or checkpoint/resume to configure, and trace files are
    // converted by trace_convert and exported by make_trace, not by
    // the benches: both spellings of each of those flags are
    // rejected as unknown options, and the help does not mention
    // them.
    const std::string help = benchHelp("bench");
    for (const char *name : {"deadline-ms", "retries", "checkpoint",
                             "resume", "trace-format", "convert-out"}) {
        const std::string flag = std::string("--") + name;
        const std::string joined = flag + "=1";
        for (const StatusOr<BenchCli> &cli :
             {tryParse({flag.c_str(), "1"}),
              tryParse({joined.c_str()})}) {
            ASSERT_FALSE(cli.ok()) << flag;
            EXPECT_EQ(cli.status().code(),
                      StatusCode::InvalidArgument)
                << flag;
            EXPECT_EQ(cli.status().message().rfind(
                          "unknown option: " + flag, 0),
                      0u)
                << cli.status().message();
        }
        EXPECT_EQ(help.find(flag), std::string::npos) << flag;
    }
}

TEST(BenchCliTest, ErrorLogCapFlag)
{
    const auto defaulted = parse({});
    ASSERT_TRUE(defaulted.has_value());
    EXPECT_EQ(defaulted->errorLogCap, 0U); // 0 = device default

    const StatusOr<BenchCli> cli =
        tryParse({"--error-log-cap", "512"});
    ASSERT_TRUE(cli.ok()) << cli.status().message();
    EXPECT_EQ(cli.value().errorLogCap, 512U);

    const StatusOr<BenchCli> spelled =
        tryParse({"--error-log-cap=1"});
    ASSERT_TRUE(spelled.ok());
    EXPECT_EQ(spelled.value().errorLogCap, 1U);
}

TEST(BenchCliTest, ErrorLogCapValidation)
{
    EXPECT_FALSE(tryParse({"--error-log-cap", "0"}).ok());
    EXPECT_FALSE(tryParse({"--error-log-cap", "-4"}).ok());
    EXPECT_FALSE(tryParse({"--error-log-cap", "1048577"}).ok());
    EXPECT_FALSE(tryParse({"--error-log-cap", "many"}).ok());
    EXPECT_FALSE(tryParse({"--error-log-cap"}).ok());
}

TEST(BenchCliTest, FiniteLogOverrideFlags)
{
    const auto defaulted = parse({});
    ASSERT_TRUE(defaulted.has_value());
    EXPECT_EQ(defaulted->logCapacityBytes, 0U);
    EXPECT_EQ(defaulted->segmentBytes, 0U);
    EXPECT_EQ(defaulted->cleanReserve, 0U);

    const StatusOr<BenchCli> cli = tryParse(
        {"--log-capacity", "67108864", "--segment-bytes",
         "1048576", "--clean-reserve=6"});
    ASSERT_TRUE(cli.ok()) << cli.status().message();
    EXPECT_EQ(cli.value().logCapacityBytes, 64 * kMiB);
    EXPECT_EQ(cli.value().segmentBytes, kMiB);
    EXPECT_EQ(cli.value().cleanReserve, 6U);

    // Overrides apply onto a bench config; zeros leave it alone.
    // The default target (4) is below the raised reserve, so the
    // hysteresis follows it upward to reserve + 2.
    stl::FiniteLogConfig config;
    cli.value().applyFiniteLogOverrides(config);
    EXPECT_EQ(config.capacityBytes, 64 * kMiB);
    EXPECT_EQ(config.segmentBytes, kMiB);
    EXPECT_EQ(config.cleanReserveSegments, 6U);
    EXPECT_EQ(config.cleanTargetSegments, 8U); // followed upward

    // A reserve the default target already clears leaves the
    // target alone.
    stl::FiniteLogConfig low;
    const StatusOr<BenchCli> small =
        tryParse({"--clean-reserve", "3"});
    ASSERT_TRUE(small.ok());
    small.value().applyFiniteLogOverrides(low);
    EXPECT_EQ(low.cleanReserveSegments, 3U);
    EXPECT_EQ(low.cleanTargetSegments, 4U);

    stl::FiniteLogConfig untouched;
    const auto plain = parse({});
    plain->applyFiniteLogOverrides(untouched);
    EXPECT_EQ(untouched.capacityBytes,
              stl::FiniteLogConfig{}.capacityBytes);
    EXPECT_EQ(untouched.cleanTargetSegments,
              stl::FiniteLogConfig{}.cleanTargetSegments);
}

TEST(BenchCliTest, FiniteLogOverrideValidation)
{
    EXPECT_FALSE(tryParse({"--log-capacity", "0"}).ok());
    EXPECT_FALSE(tryParse({"--log-capacity", "1048575"}).ok());
    EXPECT_FALSE(
        tryParse({"--log-capacity", "1099511627777"}).ok());
    EXPECT_FALSE(tryParse({"--log-capacity", "lots"}).ok());
    EXPECT_FALSE(tryParse({"--log-capacity"}).ok());
    EXPECT_FALSE(tryParse({"--segment-bytes", "65535"}).ok());
    EXPECT_FALSE(tryParse({"--segment-bytes", "1073741825"}).ok());
    EXPECT_FALSE(tryParse({"--segment-bytes"}).ok());
    EXPECT_FALSE(tryParse({"--clean-reserve", "0"}).ok());
    EXPECT_FALSE(tryParse({"--clean-reserve", "1025"}).ok());
    EXPECT_FALSE(tryParse({"--clean-reserve", "-1"}).ok());
    EXPECT_FALSE(tryParse({"--clean-reserve"}).ok());
}

TEST(BenchCliTest, PositionalValidation)
{
    EXPECT_FALSE(tryParse({"0"}).ok());      // scale must be > 0
    EXPECT_FALSE(tryParse({"-0.5"}).ok());
    EXPECT_FALSE(tryParse({"big"}).ok());
    EXPECT_FALSE(tryParse({"0.02", "-3"}).ok()); // seed >= 0
    EXPECT_FALSE(tryParse({"0.02", "1.5"}).ok());
}

TEST(BenchCliTest, ReportDestinations)
{
    const auto cli =
        parse({"--json=/tmp/a.json", "--csv=/tmp/a.csv"});
    ASSERT_TRUE(cli.has_value());
    EXPECT_EQ(cli->jsonPath, "/tmp/a.json");
    EXPECT_EQ(cli->csvPath, "/tmp/a.csv");

    const auto bare = parse({"--json", "--csv"});
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->jsonPath, "-");
    EXPECT_EQ(bare->csvPath, "-");
}

TEST(BenchCliTest, RejectsUnknownAndExtraArguments)
{
    EXPECT_FALSE(parse({"--frobnicate"}).has_value());
    EXPECT_FALSE(parse({"0.02", "1", "2"}).has_value());
    EXPECT_FALSE(parse({"--jobs"}).has_value());
    EXPECT_FALSE(parse({"--jobs", "-2"}).has_value());
}

TEST(BenchCliTest, ObserverFactoryIsNullWithoutParanoidOrExtra)
{
    const auto cli = parse({});
    ASSERT_TRUE(cli.has_value());
    EXPECT_FALSE(static_cast<bool>(cli->observerFactory()));
}

TEST(BenchCliTest, ObservabilityDestinations)
{
    const auto cli = parse(
        {"--metrics-out", "/tmp/m.json", "--trace-out=/tmp/t.json"});
    ASSERT_TRUE(cli.has_value());
    EXPECT_EQ(cli->metricsOutPath, "/tmp/m.json");
    EXPECT_EQ(cli->traceOutPath, "/tmp/t.json");

    const auto other = parse(
        {"--metrics-out=m.prom", "--trace-out", "-"});
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->metricsOutPath, "m.prom");
    EXPECT_EQ(other->traceOutPath, "-");

    const auto off = parse({});
    ASSERT_TRUE(off.has_value());
    EXPECT_TRUE(off->metricsOutPath.empty());
    EXPECT_TRUE(off->traceOutPath.empty());
}

TEST(BenchCliTest, ObservabilityFlagsRequirePaths)
{
    EXPECT_FALSE(tryParse({"--metrics-out"}).ok());
    EXPECT_FALSE(tryParse({"--metrics-out="}).ok());
    EXPECT_FALSE(tryParse({"--trace-out"}).ok());
    EXPECT_FALSE(tryParse({"--trace-out="}).ok());
}

TEST(BenchCliTest, HelpRequestShortCircuitsParsing)
{
    // parseBenchCli exits the process on --help, so only the typed
    // parser is testable; --help wins even mid-way through a line
    // that would otherwise be rejected.
    for (const char *spelling : {"--help", "-h"}) {
        const auto cli = tryParse({"0.5", spelling, "--frobnicate"});
        ASSERT_TRUE(cli.ok()) << spelling;
        EXPECT_TRUE(cli.value().helpRequested) << spelling;
    }
    const auto plain = tryParse({});
    ASSERT_TRUE(plain.ok());
    EXPECT_FALSE(plain.value().helpRequested);
}

TEST(BenchCliTest, HelpTextDocumentsExactlyTheAcceptedFlags)
{
    const std::string help = benchHelp("bench");
    EXPECT_EQ(help.rfind("usage: bench ", 0), 0u);

    // Every flag the parser accepts appears in the help...
    for (const std::string &flag : benchFlagNames())
        EXPECT_NE(help.find(flag), std::string::npos)
            << "help is missing " << flag;

    // ...and every "--flag" token in the help is a parser flag, so
    // the text cannot advertise an option that does not exist.
    const std::vector<std::string> known = benchFlagNames();
    for (std::size_t at = help.find("--"); at != std::string::npos;
         at = help.find("--", at + 1)) {
        std::size_t end = at + 2;
        while (end < help.size() &&
               (std::isalnum(static_cast<unsigned char>(
                    help[end])) != 0 ||
                help[end] == '-'))
            ++end;
        const std::string token = help.substr(at, end - at);
        EXPECT_NE(std::find(known.begin(), known.end(), token),
                  known.end())
            << "help mentions unknown flag " << token;
        at = end - 1;
    }

    // The one-line usage stays in sync too.
    const std::string usage = benchUsage("bench");
    for (const std::string &flag : benchFlagNames())
        EXPECT_NE(usage.find(flag), std::string::npos)
            << "usage is missing " << flag;
}

TEST(BenchCliTest, ParanoidPrependsValidator)
{
    const auto cli = parse({"--paranoid"});
    ASSERT_TRUE(cli.has_value());
    EXPECT_TRUE(cli->paranoid);

    bool extra_called = false;
    ObserverFactory factory =
        cli->observerFactory([&extra_called](const RunKey &) {
            extra_called = true;
            std::vector<std::unique_ptr<stl::SimObserver>> observers;
            observers.push_back(
                std::make_unique<analysis::ValidatingObserver>());
            return observers;
        });
    ASSERT_TRUE(static_cast<bool>(factory));

    const RunKey key{0, 0, "w", "c"};
    const auto observers = factory(key);
    EXPECT_TRUE(extra_called);
    ASSERT_EQ(observers.size(), 2u);
    // Validator first, the bench's own observers after.
    EXPECT_NE(dynamic_cast<analysis::ValidatingObserver *>(
                  observers[0].get()),
              nullptr);
}

} // namespace
} // namespace logseek::sweep
