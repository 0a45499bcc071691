/**
 * @file
 * A byte-budgeted cache of physical sector ranges.
 *
 * Both read caches in the paper are modeled with this structure: the
 * on-drive prefetch buffer that holds look-ahead/look-behind fetch
 * regions (FIFO replacement, like a drive segment buffer), and the
 * translation-aware selective RAM cache of fragments (LRU
 * replacement, Algorithm 3).
 *
 * The cache has no invalidation path: a cached range is assumed to
 * hold what the media holds until it is evicted. That holds for the
 * log-structured layer on the infinite disk, whose physical sectors
 * are written at most once (see DESIGN.md §6). It does not hold for
 * layers that rewrite sectors in place: the finite log reuses a
 * segment after cleaning it, the media cache rewrites bands when it
 * merges, and the conventional layer writes in place.
 *
 * Layout: range nodes come from a chunked pool and are threaded on
 * an intrusive doubly-linked recency list (front = most recent).
 * The index has height 2: sorted blocks of at most 64 {start, node}
 * pairs, plus a contiguous array of each block's first start. A
 * search checks a one-block finger (the block of the previous
 * search) with two compares against that array, and only when the
 * finger misses searches the array (halving it down to 64 starts,
 * then probing those); then it searches one block. An insert or an
 * eviction moves at most one block's entries.
 *
 * Each node points at the block holding its entry, and each block
 * knows its position, so erasing a known node (an eviction) starts
 * at its block and does no top-level search. contains() and insert()
 * share one walk that collects the entries overlapping an extent and
 * its uncovered pieces; an insert() of the extent a missed
 * contains() just walked, with no call in between, admits the kept
 * pieces without walking again. That is the order in which the
 * selective cache is driven: look a fragment up, admit it on a miss.
 *
 * Refreshes and evictions are pointer relinks, and emptied blocks
 * and the walk's scratch vectors are kept for reuse, so the steady
 * state performs no heap allocation.
 */

#ifndef LOGSEEK_DISK_PBA_CACHE_H
#define LOGSEEK_DISK_PBA_CACHE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/extent.h"

namespace logseek::disk
{

/** Replacement policy for PbaRangeCache. */
enum class EvictionPolicy { Lru, Fifo };

/**
 * Cache of non-overlapping physical sector ranges with a byte
 * budget. contains() answers whether a range is fully resident;
 * insert() adds the not-yet-resident portions of a range and evicts
 * until the budget holds.
 */
class PbaRangeCache
{
  public:
    /**
     * @param capacity_bytes Byte budget; 0 disables caching.
     * @param policy Replacement policy.
     */
    PbaRangeCache(std::uint64_t capacity_bytes, EvictionPolicy policy);

    PbaRangeCache(const PbaRangeCache &) = delete;
    PbaRangeCache &operator=(const PbaRangeCache &) = delete;

    /**
     * True if extent is fully covered by resident ranges. Under LRU
     * the covering entries are refreshed on a full hit. An empty
     * extent is trivially covered.
     */
    bool contains(const SectorExtent &extent);

    /**
     * Make extent resident: uncovered subranges are inserted as
     * fresh entries, then entries are evicted (LRU/FIFO order) until
     * the byte budget holds.
     */
    void insert(const SectorExtent &extent);

    /** Bytes currently resident. */
    std::uint64_t usedBytes() const { return usedBytes_; }

    /** Configured byte budget. */
    std::uint64_t capacityBytes() const { return capacityBytes_; }

    /** Number of resident (non-overlapping) ranges. */
    std::size_t entryCount() const { return entryCount_; }

    /** Total entries evicted since construction. */
    std::uint64_t evictionCount() const { return evictions_; }

  private:
    struct IndexBlock;

    /** One resident range, linked into the recency list. `next`
     *  doubles as the free-list link while the node is pooled. */
    struct RangeNode
    {
        SectorExtent extent;
        RangeNode *prev = nullptr;
        RangeNode *next = nullptr;
        /** The index block holding this node's entry. */
        IndexBlock *block = nullptr;
    };

    /** One index entry; the start is kept inline so a search
     *  touches no node. */
    struct IndexEntry
    {
        std::uint64_t start;
        RangeNode *node;
    };

    /** Most entries in one index block. A full block splits in two
     *  when it gains one more; a block left with fewer than
     *  kMergeBelow entries merges with its right neighbour when the
     *  two fit in one block. */
    static constexpr std::size_t kBlockEntries = 64;
    static constexpr std::size_t kMergeBelow = 16;

    /** A sorted run of index entries. The entries come first, so
     *  none of them straddles a cache line. */
    struct IndexBlock
    {
        std::array<IndexEntry, kBlockEntries> entries{};
        std::size_t size = 0;
        /** This block's position in indexBlocks_. */
        std::size_t pos = 0;
    };

    /** Link node at the recency front (most recent). */
    void pushFront(RangeNode *node);

    /** Unlink node from the recency list. */
    void unlink(RangeNode *node);

    void moveToFront(RangeNode *node);

    RangeNode *allocNode();
    void freeNode(RangeNode *node);

    /** Calls visit(node) on each entry starting before extent.end(),
     *  in start order, from the last entry starting at or before
     *  extent.start (or the first entry), until visit returns
     *  false. */
    template <typename Visit>
    void forEachFrom(const SectorExtent &extent, Visit visit);

    /** Fill overlapScratch_ with the entries overlapping extent and
     *  missingScratch_ with its uncovered pieces, both ascending,
     *  and remember extent as walked_. */
    void walk(const SectorExtent &extent);

    /** The block whose range holds start: the last block whose
     *  first start is <= start, or block 0. Tries the finger first
     *  and leaves it on the answer. */
    std::size_t blockFor(std::uint64_t start);

    void indexInsert(RangeNode *node);
    void indexErase(RangeNode *node);

    /** A cleared block, reused if one was dropped earlier. */
    std::unique_ptr<IndexBlock> takeBlock();

    /** Move the upper half of block b into a new block b + 1. */
    void splitBlock(std::size_t b);

    /** Remove block b from the index and keep it for reuse. */
    void dropBlock(std::size_t b);

    /** Set the pos of every block from b on. */
    void renumberFrom(std::size_t b);

    void evictOne();

    std::uint64_t capacityBytes_;
    EvictionPolicy policy_;
    std::uint64_t usedBytes_ = 0;
    std::uint64_t evictions_ = 0;
    std::size_t entryCount_ = 0;

    /** Recency list: head_ = most recent, tail_ = next victim. */
    RangeNode *head_ = nullptr;
    RangeNode *tail_ = nullptr;

    /** The index, in start order: blocks are non-empty, entries
     *  never overlap, firstStarts_[b] is the first start of
     *  indexBlocks_[b] and indexBlocks_[b]->pos is b, and every
     *  resident node's block holds its entry. */
    std::vector<std::unique_ptr<IndexBlock>> indexBlocks_;
    std::vector<std::uint64_t> firstStarts_;
    std::vector<std::unique_ptr<IndexBlock>> spareBlocks_;

    /** The block blockFor() found last; below indexBlocks_.size()
     *  whenever the index is not empty. */
    std::size_t finger_ = 0;

    /** Chunked node pool with an intrusive free list. */
    static constexpr std::size_t kNodesPerChunk = 64;
    std::vector<std::unique_ptr<RangeNode[]>> nodeChunks_;
    std::size_t nodesUsed_ = 0;
    RangeNode *freeList_ = nullptr;

    /** The last walk's results, reusable scratches. They describe
     *  walked_ until the index next changes; insert() empties
     *  walked_, and an empty extent matches no insert(). */
    std::vector<RangeNode *> overlapScratch_;
    std::vector<SectorExtent> missingScratch_;
    SectorExtent walked_;
};

} // namespace logseek::disk

#endif // LOGSEEK_DISK_PBA_CACHE_H
