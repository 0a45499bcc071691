/**
 * @file
 * Plain-text table and series printers used by the figure harnesses
 * in bench/ to emit the paper's tables and plot series.
 */

#ifndef LOGSEEK_ANALYSIS_REPORT_H
#define LOGSEEK_ANALYSIS_REPORT_H

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace logseek::analysis
{

/** Column-aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Add one row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns and a header rule. */
    void print(std::ostream &out) const;

    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
std::string formatDouble(double value, int precision = 2);

/**
 * Format an optional ratio (e.g. stl::seekAmplification); renders
 * "-" when the ratio is undefined (zero-seek baseline or failed
 * run) so tables never print a misleading number.
 */
std::string formatRatio(std::optional<double> value,
                        int precision = 2);

/** Format a byte count as a human-readable KiB/MiB/GiB quantity. */
std::string formatBytes(std::uint64_t bytes);

} // namespace logseek::analysis

#endif // LOGSEEK_ANALYSIS_REPORT_H
