#include "histogram.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "logging.h"

namespace logseek
{

void
EmpiricalCdf::add(double sample)
{
    samples_.push_back(sample);
    sorted_ = false;
}

void
EmpiricalCdf::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
EmpiricalCdf::fractionAtOrBelow(double x) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const auto it =
        std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
}

double
EmpiricalCdf::percentile(double p) const
{
    panicIf(samples_.empty(), "EmpiricalCdf::percentile on empty CDF");
    panicIf(p < 0.0 || p > 1.0, "EmpiricalCdf::percentile: p not in [0,1]");
    ensureSorted();
    if (samples_.size() == 1)
        return samples_.front();
    const double rank = p * static_cast<double>(samples_.size() - 1);
    const auto idx = static_cast<std::size_t>(std::llround(rank));
    return samples_[std::min(idx, samples_.size() - 1)];
}

double
EmpiricalCdf::min() const
{
    panicIf(samples_.empty(), "EmpiricalCdf::min on empty CDF");
    ensureSorted();
    return samples_.front();
}

double
EmpiricalCdf::max() const
{
    panicIf(samples_.empty(), "EmpiricalCdf::max on empty CDF");
    ensureSorted();
    return samples_.back();
}

double
EmpiricalCdf::mean() const
{
    if (samples_.empty())
        return 0.0;
    const double sum =
        std::accumulate(samples_.begin(), samples_.end(), 0.0);
    return sum / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>>
EmpiricalCdf::curve(double lo, double hi, std::size_t n) const
{
    panicIf(n < 2, "EmpiricalCdf::curve needs at least two points");
    panicIf(lo > hi, "EmpiricalCdf::curve: lo > hi");
    std::vector<std::pair<double, double>> points;
    points.reserve(n);
    const double step = (hi - lo) / static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i) {
        const double x = lo + step * static_cast<double>(i);
        points.emplace_back(x, fractionAtOrBelow(x));
    }
    return points;
}

} // namespace logseek
