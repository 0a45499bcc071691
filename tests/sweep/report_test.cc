/**
 * @file
 * Tests for the uniform sweep reports: escaped labels, report shape,
 * the telemetry-free deterministic form, CSV structure, and a column
 * for every result field.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "stl/simulator.h"
#include "sweep/report.h"
#include "sweep/sweep_runner.h"
#include "util/logging.h"
#include "workloads/profiles.h"

namespace logseek::sweep
{
namespace
{

SweepResult
tinySweep()
{
    workloads::ProfileOptions profile;
    profile.scale = 0.002;
    stl::SimConfig nols;
    nols.translation = stl::TranslationKind::Conventional;
    stl::SimConfig ls;
    ls.translation = stl::TranslationKind::LogStructured;
    SweepOptions options;
    options.jobs = 2;
    return SweepRunner({WorkloadSpec::profile("usr_1", profile)},
                       {ConfigSpec::fixed("NoLS", nols),
                        ConfigSpec::fixed("LS", ls)},
                       options)
        .run();
}

/** A sweep whose config label needs escaping in every format. */
SweepResult
evilLabelSweep()
{
    workloads::ProfileOptions profile;
    profile.scale = 0.002;
    stl::SimConfig nols;
    nols.translation = stl::TranslationKind::Conventional;
    SweepOptions options;
    options.jobs = 1;
    return SweepRunner(
               {WorkloadSpec::profile("usr_1", profile)},
               {ConfigSpec::fixed("evil,\"label\"\nline2", nols)},
               options)
        .run();
}

TEST(ReportTest, CsvQuotesFieldsWithCommasQuotesAndNewlines)
{
    std::ostringstream out;
    writeCsv(out, evilLabelSweep());
    // RFC-4180 quoting: the whole field in quotes, inner quotes
    // doubled, commas and newlines preserved verbatim inside.
    EXPECT_NE(out.str().find("\"evil,\"\"label\"\"\nline2\""),
              std::string::npos);
}

TEST(ReportTest, JsonEscapesConfigLabels)
{
    std::ostringstream out;
    writeJson(out, evilLabelSweep());
    const std::string json = out.str();
    EXPECT_NE(json.find("evil,\\\"label\\\"\\nline2"),
              std::string::npos);
    // The raw newline must never reach the JSON string literal.
    EXPECT_EQ(json.find("\"label\"\nline2"), std::string::npos);
}

TEST(ReportTest, JsonContainsGridAndRows)
{
    const SweepResult sweep = tinySweep();
    std::ostringstream out;
    writeJson(out, sweep);
    const std::string json = out.str();

    EXPECT_NE(json.find("\"workloads\": [\"usr_1\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"configs\": [\"NoLS\", \"LS\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"telemetry\""), std::string::npos);
    EXPECT_NE(json.find("\"readSeeks\""), std::string::npos);
    EXPECT_NE(json.find("\"wallSec\""), std::string::npos);
    // Two rows — one per config.
    std::size_t rows = 0;
    for (std::size_t at = json.find("\"workload\": \"usr_1\"");
         at != std::string::npos;
         at = json.find("\"workload\": \"usr_1\"", at + 1))
        ++rows;
    EXPECT_EQ(rows, 2u);
}

TEST(ReportTest, TelemetryFreeFormOmitsTimingFields)
{
    const SweepResult sweep = tinySweep();
    std::ostringstream out;
    writeJson(out, sweep, /*with_telemetry=*/false);
    const std::string json = out.str();

    EXPECT_EQ(json.find("\"telemetry\""), std::string::npos);
    EXPECT_EQ(json.find("\"wallSec\""), std::string::npos);
    EXPECT_EQ(json.find("\"opsPerSec\""), std::string::npos);
    // Deterministic fields stay.
    EXPECT_NE(json.find("\"readSeeks\""), std::string::npos);
}

TEST(ReportTest, CsvHasHeaderAndOneLinePerCell)
{
    const SweepResult sweep = tinySweep();
    std::ostringstream out;
    writeCsv(out, sweep);
    std::istringstream lines(out.str());

    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header.rfind("workload,config,ok,error,ops", 0), 0u);
    EXPECT_NE(header.find("readSeeks"), std::string::npos);
    EXPECT_NE(header.find("writeAmplification"), std::string::npos);

    std::size_t data_lines = 0;
    std::string line;
    while (std::getline(lines, line))
        if (!line.empty())
            ++data_lines;
    EXPECT_EQ(data_lines, sweep.rows.size());
}

TEST(ReportTest, RowsCarryEveryResultField)
{
    // Each numeric member holds its own value, so a member that
    // forEachField lists but a format leaves out, or writes in
    // another member's column, shows.
    RunRow row;
    row.key.workload = "w";
    row.key.configLabel = "c";
    std::map<std::string, std::string> expected;
    std::uint64_t next = 1000;
    stl::forEachField(row.result, [&](const char *name, auto &member) {
        using T = std::decay_t<decltype(member)>;
        if constexpr (std::is_arithmetic_v<T>) {
            member = static_cast<T>(next);
            expected[name] = std::to_string(next++);
        }
    });
    SweepResult sweep;
    sweep.workloads = {"w"};
    sweep.configs = {"c"};
    sweep.rows.push_back(std::move(row));

    std::ostringstream json_out;
    writeJson(json_out, sweep, /*with_telemetry=*/false);
    const std::string json = json_out.str();
    for (const auto &[name, value] : expected)
        EXPECT_NE(json.find("\"" + name + "\": " + value + ","),
                  std::string::npos)
            << name;

    std::ostringstream csv_out;
    writeCsv(csv_out, sweep, /*with_telemetry=*/false);
    std::istringstream lines(csv_out.str());
    const auto cells = [&] {
        std::string line;
        std::getline(lines, line);
        std::vector<std::string> out;
        std::istringstream fields(line);
        for (std::string cell; std::getline(fields, cell, ',');)
            out.push_back(cell);
        return out;
    };
    const std::vector<std::string> header = cells();
    const std::vector<std::string> values = cells();
    ASSERT_EQ(values.size(), header.size());
    for (const auto &[name, value] : expected) {
        ASSERT_EQ(std::count(header.begin(), header.end(), name), 1)
            << name;
        const auto column = static_cast<std::size_t>(
            std::find(header.begin(), header.end(), name) -
            header.begin());
        EXPECT_EQ(values[column], value) << name;
    }
}

TEST(ReportTest, FailedRowsCarryTheErrorInBothFormats)
{
    SweepOptions options;
    options.jobs = 1;
    workloads::ProfileOptions profile;
    profile.scale = 0.002;
    const SweepResult sweep =
        SweepRunner({WorkloadSpec::profile("usr_1", profile)},
                    {ConfigSpec::deferred(
                        "broken",
                        [](const trace::Trace &) -> stl::SimConfig {
                            throw FatalError("bad \"config\"");
                        })},
                    options)
            .run();

    std::ostringstream json_out;
    writeJson(json_out, sweep);
    EXPECT_NE(json_out.str().find("\"ok\": false"),
              std::string::npos);
    EXPECT_NE(json_out.str().find("bad \\\"config\\\""),
              std::string::npos);

    std::ostringstream csv_out;
    writeCsv(csv_out, sweep);
    EXPECT_NE(csv_out.str().find("usr_1,broken,false,"),
              std::string::npos);
    EXPECT_NE(csv_out.str().find("bad \"\"config\"\""),
              std::string::npos);
}

} // namespace
} // namespace logseek::sweep
