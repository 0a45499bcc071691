#include "report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/logging.h"
#include "util/units.h"

namespace logseek::analysis
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    panicIf(headers_.empty(), "TextTable: need at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    panicIf(cells.size() != headers_.size(),
            "TextTable: row width does not match header");
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &out) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << std::left << std::setw(static_cast<int>(widths[c]))
                << row[c];
            out << (c + 1 == row.size() ? "\n" : "  ");
        }
    };

    print_row(headers_);
    std::size_t total = 0;
    for (const std::size_t w : widths)
        total += w + 2;
    out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : rows_)
        print_row(row);
}

std::string
formatRatio(std::optional<double> value, int precision)
{
    return value ? formatDouble(*value, precision) : "-";
}

std::string
formatDouble(double value, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

std::string
formatBytes(std::uint64_t bytes)
{
    const char *unit = "B";
    double value = static_cast<double>(bytes);
    if (bytes >= kGiB) {
        value /= static_cast<double>(kGiB);
        unit = "GiB";
    } else if (bytes >= kMiB) {
        value /= static_cast<double>(kMiB);
        unit = "MiB";
    } else if (bytes >= kKiB) {
        value /= static_cast<double>(kKiB);
        unit = "KiB";
    }
    return formatDouble(value, 1) + " " + unit;
}

} // namespace logseek::analysis
