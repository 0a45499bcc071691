/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * All logseek generators draw from Rng, a small xoshiro256** engine
 * seeded explicitly, so every experiment is reproducible bit-for-bit
 * across platforms (std::mt19937 distributions are not portable
 * across standard library implementations, so we implement the
 * distributions we need by hand).
 */

#ifndef LOGSEEK_UTIL_RANDOM_H
#define LOGSEEK_UTIL_RANDOM_H

#include <cstdint>
#include <vector>

namespace logseek
{

/**
 * xoshiro256** pseudo-random engine with splitmix64 seeding.
 *
 * Satisfies UniformRandomBitGenerator, but the member helpers below
 * are preferred because they are deterministic across platforms.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed the engine; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Next raw 64-bit value. */
    result_type operator()();

    /** Uniform integer in [0, bound), bound > 0 (unbiased). */
    std::uint64_t nextUint(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p);

  private:
    std::uint64_t s_[4];
};

/**
 * Zipf(s) sampler over ranks {0, 1, ..., n-1} by inverted-CDF table.
 *
 * Rank 0 is the most popular item. Used to synthesize the skewed
 * fragment-popularity distributions of paper Figure 10.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of items, n >= 1.
     * @param skew Zipf exponent s >= 0 (0 = uniform).
     */
    ZipfSampler(std::size_t n, double skew);

    /** Draw one rank in [0, n). */
    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace logseek

#endif // LOGSEEK_UTIL_RANDOM_H
