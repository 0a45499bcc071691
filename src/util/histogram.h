/**
 * @file
 * Empirical distributions: sample-based CDFs.
 *
 * Used to regenerate the paper's CDF figures (access distances,
 * fragmented-read fragment counts, cache-size curves).
 */

#ifndef LOGSEEK_UTIL_HISTOGRAM_H
#define LOGSEEK_UTIL_HISTOGRAM_H

#include <cstdint>
#include <utility>
#include <vector>

namespace logseek
{

/**
 * Empirical CDF over double-valued samples.
 *
 * Samples are accumulated with add(); queries sort lazily.
 */
class EmpiricalCdf
{
  public:
    /** Add one sample. */
    void add(double sample);

    /** Number of samples. */
    std::size_t count() const { return samples_.size(); }

    /** Fraction of samples <= x; 0 if empty. */
    double fractionAtOrBelow(double x) const;

    /**
     * Value at quantile p in [0, 1] (nearest-rank). Requires at
     * least one sample.
     */
    double percentile(double p) const;

    /** Smallest sample; requires at least one sample. */
    double min() const;

    /** Largest sample; requires at least one sample. */
    double max() const;

    /** Arithmetic mean; 0 if empty. */
    double mean() const;

    /**
     * Evaluate the CDF curve at n evenly spaced x positions between
     * lo and hi (inclusive). Returns (x, F(x)) pairs; useful for
     * printing plot-ready series.
     */
    std::vector<std::pair<double, double>>
    curve(double lo, double hi, std::size_t n) const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace logseek

#endif // LOGSEEK_UTIL_HISTOGRAM_H
