#include "defrag.h"

#include "util/logging.h"

namespace logseek::stl
{

Defragmenter::Defragmenter(const DefragConfig &config)
    : config_(config)
{
    panicIf(config_.minFragments < 2,
            "Defragmenter: minFragments below 2 would rewrite "
            "unfragmented reads");
    panicIf(config_.minAccesses < 1,
            "Defragmenter: minAccesses must be at least 1");
}

bool
Defragmenter::onRead(const SectorExtent &logical, std::size_t fragments)
{
    if (fragments < config_.minFragments)
        return false;

    if (config_.minAccesses > 1) {
        const auto key = std::make_pair(logical.start, logical.count);
        const std::uint32_t seen = ++accessCounts_[key];
        if (seen < config_.minAccesses)
            return false;
        accessCounts_.erase(key);
    }

    ++rewrites_;
    return true;
}

} // namespace logseek::stl
