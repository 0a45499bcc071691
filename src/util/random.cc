#include "random.h"

#include <algorithm>
#include <cmath>

#include "logging.h"

namespace logseek
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::nextUint(std::uint64_t bound)
{
    panicIf(bound == 0, "Rng::nextUint: bound must be positive");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = max() - max() % bound;
    std::uint64_t value;
    do {
        value = (*this)();
    } while (value >= limit);
    return value % bound;
}

double
Rng::nextDouble()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

ZipfSampler::ZipfSampler(std::size_t n, double skew)
{
    panicIf(n == 0, "ZipfSampler: n must be >= 1");
    panicIf(skew < 0.0, "ZipfSampler: skew must be >= 0");
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t rank = 0; rank < n; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1), skew);
        cdf_[rank] = total;
    }
    for (auto &value : cdf_)
        value /= total;
    cdf_.back() = 1.0;
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
}

} // namespace logseek
