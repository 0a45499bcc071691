#include "pba_cache.h"

#include <algorithm>

#include "util/logging.h"
#include "util/search.h"

namespace logseek::disk
{

namespace
{

/** Upper-bound position of start among a block's entries. */
template <typename Block>
std::size_t
entriesAtMost(const Block &block, std::uint64_t start)
{
    return countAtMost(block.entries.data(), block.size, start,
                       [](const auto &entry) { return entry.start; });
}

} // namespace

PbaRangeCache::PbaRangeCache(std::uint64_t capacity_bytes,
                             EvictionPolicy policy)
    : capacityBytes_(capacity_bytes), policy_(policy)
{
}

void
PbaRangeCache::pushFront(RangeNode *node)
{
    node->prev = nullptr;
    node->next = head_;
    if (head_ != nullptr)
        head_->prev = node;
    head_ = node;
    if (tail_ == nullptr)
        tail_ = node;
}

void
PbaRangeCache::unlink(RangeNode *node)
{
    if (node->prev != nullptr)
        node->prev->next = node->next;
    else
        head_ = node->next;
    if (node->next != nullptr)
        node->next->prev = node->prev;
    else
        tail_ = node->prev;
    node->prev = nullptr;
    node->next = nullptr;
}

void
PbaRangeCache::moveToFront(RangeNode *node)
{
    if (head_ == node)
        return;
    unlink(node);
    pushFront(node);
}

PbaRangeCache::RangeNode *
PbaRangeCache::allocNode()
{
    if (freeList_ != nullptr) {
        RangeNode *node = freeList_;
        freeList_ = node->next;
        node->prev = nullptr;
        node->next = nullptr;
        return node;
    }
    if (nodesUsed_ == nodeChunks_.size() * kNodesPerChunk)
        nodeChunks_.push_back(
            std::make_unique<RangeNode[]>(kNodesPerChunk));
    RangeNode *node = &nodeChunks_[nodesUsed_ / kNodesPerChunk]
                                  [nodesUsed_ % kNodesPerChunk];
    ++nodesUsed_;
    return node;
}

void
PbaRangeCache::freeNode(RangeNode *node)
{
    node->prev = nullptr;
    node->next = freeList_;
    freeList_ = node;
}

std::size_t
PbaRangeCache::blockFor(std::uint64_t start)
{
    // The finger holds start when start is below the next block's
    // first start and not below its own; block 0 also holds every
    // start below the first.
    const std::size_t n = firstStarts_.size();
    const std::size_t f = finger_;
    if ((f == 0 || firstStarts_[f] <= start) &&
        (f + 1 == n || start < firstStarts_[f + 1]))
        return f;
    // Halve the array down to 64 keys, then count with the group
    // probe: past 64 blocks that beats probing every 8th key.
    constexpr std::size_t kProbeKeys = 64;
    const std::uint64_t *keys = firstStarts_.data();
    std::size_t size = n;
    std::size_t after = 0;
    while (size > kProbeKeys) {
        const std::size_t half = size / 2;
        const std::size_t skip = keys[half - 1] <= start ? half : 0;
        keys += skip;
        after += skip;
        size = skip != 0 ? size - half : half;
    }
    after += countAtMost(keys, size, start);
    finger_ = after == 0 ? 0 : after - 1;
    return finger_;
}

template <typename Visit>
void
PbaRangeCache::forEachFrom(const SectorExtent &extent, Visit visit)
{
    if (indexBlocks_.empty())
        return;
    // Start at the last entry with start <= extent.start (it may
    // cover the range's head), like map::upper_bound then --it.
    std::size_t b = blockFor(extent.start);
    std::size_t i = entriesAtMost(*indexBlocks_[b], extent.start);
    if (i > 0)
        --i;
    for (; b < indexBlocks_.size(); ++b, i = 0) {
        const IndexBlock &block = *indexBlocks_[b];
        for (; i < block.size; ++i) {
            const IndexEntry &entry = block.entries[i];
            if (entry.start >= extent.end() || !visit(entry.node))
                return;
        }
    }
}

void
PbaRangeCache::walk(const SectorExtent &extent)
{
    overlapScratch_.clear();
    missingScratch_.clear();
    walked_ = extent;
    std::uint64_t cursor = extent.start;
    forEachFrom(extent, [&](RangeNode *node) {
        const SectorExtent &entry = node->extent;
        if (entry.end() <= cursor)
            return true; // the entry before extent, ending before it
        if (entry.start > cursor)
            missingScratch_.push_back({cursor, entry.start - cursor});
        overlapScratch_.push_back(node);
        cursor = entry.end();
        return cursor < extent.end();
    });
    if (cursor < extent.end())
        missingScratch_.push_back({cursor, extent.end() - cursor});
}

bool
PbaRangeCache::contains(const SectorExtent &extent)
{
    if (extent.empty())
        return true;
    walk(extent);
    if (!missingScratch_.empty())
        return false;
    // A full hit: the overlapping entries tile extent.
    if (policy_ == EvictionPolicy::Lru) {
        for (RangeNode *node : overlapScratch_)
            moveToFront(node);
    }
    return true;
}

void
PbaRangeCache::insert(const SectorExtent &extent)
{
    if (extent.empty() || capacityBytes_ == 0)
        return;

    // The uncovered pieces of extent: kept by a contains() that
    // walked this extent since the index last changed, or found now.
    if (walked_ != extent)
        walk(extent);
    walked_ = {};

    for (const auto &piece : missingScratch_) {
        RangeNode *node = allocNode();
        node->extent = piece;
        pushFront(node);
        indexInsert(node);
        usedBytes_ += piece.bytes();
    }

    while (usedBytes_ > capacityBytes_ && tail_ != nullptr)
        evictOne();
}

std::unique_ptr<PbaRangeCache::IndexBlock>
PbaRangeCache::takeBlock()
{
    if (spareBlocks_.empty())
        return std::make_unique<IndexBlock>();
    std::unique_ptr<IndexBlock> block = std::move(spareBlocks_.back());
    spareBlocks_.pop_back();
    return block;
}

void
PbaRangeCache::splitBlock(std::size_t b)
{
    IndexBlock &left = *indexBlocks_[b];
    std::unique_ptr<IndexBlock> right = takeBlock();
    const std::size_t keep = left.size / 2;
    std::copy(left.entries.begin() + keep,
              left.entries.begin() + left.size,
              right->entries.begin());
    right->size = left.size - keep;
    left.size = keep;
    for (std::size_t i = 0; i < right->size; ++i)
        right->entries[i].node->block = right.get();
    const auto pos = static_cast<std::ptrdiff_t>(b + 1);
    firstStarts_.insert(firstStarts_.begin() + pos,
                        right->entries[0].start);
    indexBlocks_.insert(indexBlocks_.begin() + pos, std::move(right));
    renumberFrom(b + 1);
}

void
PbaRangeCache::dropBlock(std::size_t b)
{
    indexBlocks_[b]->size = 0;
    spareBlocks_.push_back(std::move(indexBlocks_[b]));
    const auto pos = static_cast<std::ptrdiff_t>(b);
    indexBlocks_.erase(indexBlocks_.begin() + pos);
    firstStarts_.erase(firstStarts_.begin() + pos);
    renumberFrom(b);
    if (finger_ >= indexBlocks_.size())
        finger_ = 0;
}

void
PbaRangeCache::renumberFrom(std::size_t b)
{
    for (; b < indexBlocks_.size(); ++b)
        indexBlocks_[b]->pos = b;
}

void
PbaRangeCache::indexInsert(RangeNode *node)
{
    const std::uint64_t start = node->extent.start;
    if (indexBlocks_.empty()) {
        indexBlocks_.push_back(takeBlock());
        indexBlocks_[0]->pos = 0;
        firstStarts_.push_back(start);
    }
    std::size_t b = blockFor(start);
    if (indexBlocks_[b]->size == kBlockEntries) {
        splitBlock(b);
        if (start > firstStarts_[b + 1])
            ++b;
    }

    IndexBlock &block = *indexBlocks_[b];
    const std::size_t i = entriesAtMost(block, start);
    std::copy_backward(block.entries.begin() + i,
                       block.entries.begin() + block.size,
                       block.entries.begin() + block.size + 1);
    block.entries[i] = {start, node};
    node->block = &block;
    ++block.size;
    firstStarts_[b] = block.entries[0].start;
    ++entryCount_;
}

void
PbaRangeCache::indexErase(RangeNode *node)
{
    const std::uint64_t start = node->extent.start;
    IndexBlock &block = *node->block;
    const std::size_t b = block.pos;
    const std::size_t i = entriesAtMost(block, start) - 1;
    panicIf(i >= block.size || block.entries[i].node != node,
            "PbaRangeCache: index out of sync");
    std::copy(block.entries.begin() + i + 1,
              block.entries.begin() + block.size,
              block.entries.begin() + i);
    --block.size;
    --entryCount_;

    if (block.size == 0) {
        dropBlock(b);
        return;
    }
    firstStarts_[b] = block.entries[0].start;
    if (block.size < kMergeBelow && b + 1 < indexBlocks_.size()) {
        const IndexBlock &right = *indexBlocks_[b + 1];
        if (block.size + right.size <= kBlockEntries) {
            std::copy(right.entries.begin(),
                      right.entries.begin() + right.size,
                      block.entries.begin() + block.size);
            for (std::size_t j = 0; j < right.size; ++j)
                right.entries[j].node->block = &block;
            block.size += right.size;
            dropBlock(b + 1);
        }
    }
}

void
PbaRangeCache::evictOne()
{
    panicIf(tail_ == nullptr, "PbaRangeCache::evictOne: cache empty");
    RangeNode *victim = tail_;
    const SectorExtent extent = victim->extent;

    indexErase(victim);

    panicIf(usedBytes_ < extent.bytes(),
            "PbaRangeCache: byte accounting underflow");
    usedBytes_ -= extent.bytes();
    unlink(victim);
    freeNode(victim);
    ++evictions_;
}

} // namespace logseek::disk
