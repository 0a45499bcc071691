/**
 * @file
 * Unit tests for countAtMost, the node search shared by the extent
 * map and the PBA range caches: it must return std::upper_bound's
 * position for every length and every kind of query.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/search.h"

namespace logseek
{
namespace
{

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/** Up to 260 keys: past the linear range (16), across every multiple
 *  of the group width, and over the 124–231 blocks a range cache's
 *  block index reaches on the benchmark traces. */
constexpr std::size_t kMaxKeys = 260;

/** Every query that can land differently: 0, below the first key,
 *  each key, between each pair, above the last key and the largest
 *  key there is. */
std::vector<std::uint64_t>
queriesFor(const std::vector<std::uint64_t> &keys)
{
    std::vector<std::uint64_t> queries{0, kMax};
    for (const std::uint64_t key : keys) {
        queries.push_back(key);
        queries.push_back(key - 1);
        if (key != kMax)
            queries.push_back(key + 1);
    }
    return queries;
}

void
expectUpperBound(const std::vector<std::uint64_t> &keys)
{
    for (const std::uint64_t query : queriesFor(keys)) {
        const auto expected = static_cast<std::size_t>(
            std::upper_bound(keys.begin(), keys.end(), query) -
            keys.begin());
        ASSERT_EQ(countAtMost(keys.data(), keys.size(), query),
                  expected)
            << "n " << keys.size() << " query " << query;
    }
}

TEST(CountAtMost, MatchesUpperBoundAtEveryLength)
{
    // Keys 3, 6, 9, ...: the gaps leave room for queries below the
    // first key and between each pair.
    for (std::size_t n = 0; n <= kMaxKeys; ++n) {
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i)
            keys[i] = 3 * (i + 1);
        expectUpperBound(keys);
    }
}

TEST(CountAtMost, MatchesUpperBoundAtTheEndsOfTheKeySpace)
{
    // Keys spread over the whole 64-bit space, the first at 0 and
    // the last at the largest value.
    for (std::size_t n = 1; n <= kMaxKeys; ++n) {
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i)
            keys[i] = i * (kMax / n);
        keys.back() = kMax;
        expectUpperBound(keys);
    }
}

TEST(CountAtMost, MatchesUpperBoundWithRepeatedKeys)
{
    for (std::size_t n = 0; n <= kMaxKeys; ++n) {
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i)
            keys[i] = 10 * (i / 5) + 10;
        expectUpperBound(keys);
    }
}

TEST(CountAtMost, SearchesItemsByTheirProjectedKey)
{
    // 24-byte items like an extent map entry, keyed on the first
    // field.
    struct Item
    {
        std::uint64_t lba;
        std::uint64_t pba;
        std::uint64_t count;
    };
    for (std::size_t n = 0; n <= 64; ++n) {
        std::vector<Item> items(n);
        std::vector<std::uint64_t> keys(n);
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = 8 * i + 5;
            items[i] = Item{keys[i], kMax - keys[i], 8};
        }
        for (const std::uint64_t query : queriesFor(keys)) {
            const auto expected = static_cast<std::size_t>(
                std::upper_bound(keys.begin(), keys.end(), query) -
                keys.begin());
            ASSERT_EQ(countAtMost(items.data(), n, query,
                                  [](const Item &item) {
                                      return item.lba;
                                  }),
                      expected)
                << "n " << n << " query " << query;
        }
    }
}

} // namespace
} // namespace logseek
