/**
 * @file
 * The node search the extent map and the PBA range caches share.
 */

#ifndef LOGSEEK_UTIL_SEARCH_H
#define LOGSEEK_UTIL_SEARCH_H

#include <algorithm>
#include <cstdint>
#include <functional>

namespace logseek
{

/**
 * Number of items[0, n) whose key (keyOf: a callable or a member
 * pointer) is <= key, for items sorted by key: std::upper_bound's
 * position, in n's type, found without a branch on a key.
 *
 * Up to 16 items are counted one by one. A longer range first counts
 * the groups of 8 whose last key is <= key: those loads are
 * independent, where each bisection step waits on the one before.
 * Every item of those groups is <= key and every item past the next
 * group is > key, so only that group is counted item by item.
 */
template <typename T, typename Size, typename KeyOf = std::identity>
Size
countAtMost(const T *items, Size n, std::uint64_t key, KeyOf keyOf = {})
{
    constexpr Size kLinearMax = 16;
    constexpr Size kGroup = 8;
    const auto at_most = [&](Size i) -> Size {
        return std::invoke(keyOf, items[i]) <= key;
    };
    Size count = 0;
    if (n <= kLinearMax) {
        for (Size i = 0; i < n; ++i)
            count += at_most(i);
        return count;
    }
    for (Size i = kGroup - 1; i < n; i += kGroup)
        count += kGroup * at_most(i);
    const Size first = count;
    const Size last = std::min<Size>(first + kGroup, n);
    for (Size i = first; i < last; ++i)
        count += at_most(i);
    return count;
}

} // namespace logseek

#endif // LOGSEEK_UTIL_SEARCH_H
