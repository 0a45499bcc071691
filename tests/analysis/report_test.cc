/**
 * @file
 * Unit tests for the text table printers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/report.h"
#include "util/logging.h"
#include "util/units.h"

namespace logseek::analysis
{
namespace
{

TEST(TextTable, AlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"longer-name", "22"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("---"), std::string::npos);
    // Four lines: header, rule, two rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(TextTable, RowWidthMismatchPanics)
{
    TextTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), PanicError);
}

TEST(TextTable, EmptyHeaderPanics)
{
    EXPECT_THROW(TextTable({}), PanicError);
}

TEST(TextTable, RowCount)
{
    TextTable table({"x"});
    EXPECT_EQ(table.rowCount(), 0u);
    table.addRow({"1"});
    table.addRow({"2"});
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(FormatDouble, FixedPrecision)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
    EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

TEST(FormatBytes, PicksHumanUnits)
{
    EXPECT_EQ(formatBytes(512), "512.0 B");
    EXPECT_EQ(formatBytes(2 * kKiB), "2.0 KiB");
    EXPECT_EQ(formatBytes(3 * kMiB + kMiB / 2), "3.5 MiB");
    EXPECT_EQ(formatBytes(kGiB), "1.0 GiB");
}

} // namespace
} // namespace logseek::analysis
