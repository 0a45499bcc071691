#include "extent_map.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/search.h"

namespace logseek::stl
{

ExtentMap::ExtentMap() = default;

ExtentMap::~ExtentMap()
{
    if (!telemetry::enabled())
        return;
    auto &registry = telemetry::Registry::global();
    registry.counter("extent_map_cursor_hits_total").add(cursorHits_);
    registry.counter("extent_map_node_splits_total").add(nodeSplits_);
}

ExtentMap::ExtentMap(ExtentMap &&other) noexcept
    : root_(other.root_), height_(other.height_),
      firstLeaf_(other.firstLeaf_), lastLeaf_(other.lastLeaf_),
      cursor_(other.cursor_), entryCount_(other.entryCount_),
      mappedSectors_(other.mappedSectors_),
      leafBlocks_(std::move(other.leafBlocks_)),
      leafBlockUsed_(other.leafBlockUsed_),
      leafFree_(other.leafFree_),
      innerBlocks_(std::move(other.innerBlocks_)),
      innerBlockUsed_(other.innerBlockUsed_),
      innerFree_(other.innerFree_), cursorHits_(other.cursorHits_),
      nodeSplits_(other.nodeSplits_)
{
    other.root_ = nullptr;
    other.height_ = 0;
    other.firstLeaf_ = other.lastLeaf_ = other.cursor_ = nullptr;
    other.entryCount_ = 0;
    other.mappedSectors_ = 0;
    other.leafBlockUsed_ = 0;
    other.leafFree_ = nullptr;
    other.innerBlockUsed_ = 0;
    other.innerFree_ = nullptr;
    other.cursorHits_ = 0;
    other.nodeSplits_ = 0;
}

ExtentMap &
ExtentMap::operator=(ExtentMap &&other) noexcept
{
    if (this != &other) {
        std::swap(root_, other.root_);
        std::swap(height_, other.height_);
        std::swap(firstLeaf_, other.firstLeaf_);
        std::swap(lastLeaf_, other.lastLeaf_);
        std::swap(cursor_, other.cursor_);
        std::swap(entryCount_, other.entryCount_);
        std::swap(mappedSectors_, other.mappedSectors_);
        leafBlocks_.swap(other.leafBlocks_);
        std::swap(leafBlockUsed_, other.leafBlockUsed_);
        std::swap(leafFree_, other.leafFree_);
        innerBlocks_.swap(other.innerBlocks_);
        std::swap(innerBlockUsed_, other.innerBlockUsed_);
        std::swap(innerFree_, other.innerFree_);
        std::swap(cursorHits_, other.cursorHits_);
        std::swap(nodeSplits_, other.nodeSplits_);
    }
    return *this;
}

ExtentMap::Leaf *
ExtentMap::allocLeaf()
{
    if (leafFree_ != nullptr) {
        Leaf *leaf = leafFree_;
        leafFree_ = leaf->next;
        leaf->n = 0;
        leaf->prev = leaf->next = nullptr;
        leaf->parent = nullptr;
        return leaf;
    }
    if (leafBlocks_.empty() || leafBlockUsed_ == kNodesPerBlock) {
        leafBlocks_.push_back(
            std::make_unique<Leaf[]>(kNodesPerBlock));
        leafBlockUsed_ = 0;
    }
    return &leafBlocks_.back()[leafBlockUsed_++];
}

void
ExtentMap::freeLeaf(Leaf *leaf)
{
    if (cursor_ == leaf)
        cursor_ = nullptr;
    leaf->next = leafFree_;
    leafFree_ = leaf;
}

ExtentMap::Inner *
ExtentMap::allocInner()
{
    if (innerFree_ != nullptr) {
        Inner *inner = innerFree_;
        innerFree_ = inner->parent;
        inner->n = 0;
        inner->parent = nullptr;
        inner->leafChildren = true;
        return inner;
    }
    if (innerBlocks_.empty() || innerBlockUsed_ == kNodesPerBlock) {
        innerBlocks_.push_back(
            std::make_unique<Inner[]>(kNodesPerBlock));
        innerBlockUsed_ = 0;
    }
    return &innerBlocks_.back()[innerBlockUsed_++];
}

void
ExtentMap::freeInner(Inner *inner)
{
    // The parent pointer doubles as the free-list link.
    inner->parent = innerFree_;
    innerFree_ = inner;
}

ExtentMap::Leaf *
ExtentMap::descend(Lba lba, Lba *window_end) const
{
    if (root_ == nullptr)
        return nullptr;
    // A node's keys lie inside its own window, so the deepest
    // separator above lba is the tightest bound.
    Lba bound = std::numeric_limits<Lba>::max();
    void *node = root_;
    for (std::uint32_t level = height_; level > 0; --level) {
        const Inner *inner = static_cast<const Inner *>(node);
        // First child whose separator exceeds lba; keys[0] is
        // conceptual negative infinity, so the search starts at 1.
        const std::uint32_t lo =
            1 + countAtMost(inner->keys + 1, inner->n - 1, lba);
        if (lo < inner->n)
            bound = inner->keys[lo];
        node = inner->children[lo - 1];
    }
    if (window_end != nullptr)
        *window_end = bound;
    return static_cast<Leaf *>(node);
}

ExtentMap::Leaf *
ExtentMap::leafForRead(Lba lba) const
{
    // The cursor's window is [entries[0].lba, next leaf's first
    // lba): any entry relevant to lba — its predecessor included —
    // is reachable from this leaf via the chain, so the hit needs
    // no descent and is immune to stale separators.
    Leaf *c = cursor_;
    if (c != nullptr && c->n > 0 && c->entries[0].lba <= lba &&
        (c->next == nullptr || lba < c->next->entries[0].lba)) {
        ++cursorHits_;
        return c;
    }
    Leaf *leaf = descend(lba);
    cursor_ = leaf;
    return leaf;
}

ExtentMap::Pos
ExtentMap::upperBound(Lba lba) const
{
    Leaf *leaf = leafForRead(lba);
    if (leaf == nullptr)
        return {};
    const std::uint32_t idx =
        countAtMost(leaf->entries, leaf->n, lba, &Entry::lba);
    if (idx < leaf->n)
        return {leaf, idx};
    return leaf->next != nullptr ? Pos{leaf->next, 0} : Pos{};
}

std::uint32_t
ExtentMap::firstAtOrAfter(const Leaf &leaf, Lba lba)
{
    // Entries below lba are those at or below lba - 1; none is below 0.
    return lba == 0 ? 0
                    : countAtMost(leaf.entries, leaf.n, lba - 1,
                                  &Entry::lba);
}

ExtentMap::Pos
ExtentMap::lowerBound(Lba lba) const
{
    Leaf *leaf = leafForRead(lba);
    if (leaf == nullptr)
        return {};
    const std::uint32_t idx = firstAtOrAfter(*leaf, lba);
    if (idx < leaf->n)
        return {leaf, idx};
    return leaf->next != nullptr ? Pos{leaf->next, 0} : Pos{};
}

bool
ExtentMap::tryPrev(Pos &p) const
{
    if (p.leaf == nullptr) {
        if (lastLeaf_ != nullptr && lastLeaf_->n > 0) {
            p = {lastLeaf_, lastLeaf_->n - 1};
            return true;
        }
        return false;
    }
    if (p.idx > 0) {
        --p.idx;
        return true;
    }
    if (p.leaf->prev != nullptr) {
        p = {p.leaf->prev, p.leaf->prev->n - 1};
        return true;
    }
    return false;
}

void
ExtentMap::next(Pos &p) const
{
    if (++p.idx >= p.leaf->n)
        p = p.leaf->next != nullptr ? Pos{p.leaf->next, 0} : Pos{};
}

void
ExtentMap::insertIntoParent(void *left, Lba separator, void *right,
                            bool children_are_leaves)
{
    Inner *parent =
        children_are_leaves
            ? static_cast<Leaf *>(left)->parent
            : static_cast<Inner *>(left)->parent;

    if (parent == nullptr) {
        // left was the root; grow a new root above it.
        Inner *root = allocInner();
        root->leafChildren = children_are_leaves;
        root->n = 2;
        root->keys[0] = 0; // conceptual -inf, never compared
        root->keys[1] = separator;
        root->children[0] = left;
        root->children[1] = right;
        if (children_are_leaves) {
            static_cast<Leaf *>(left)->parent = root;
            static_cast<Leaf *>(right)->parent = root;
        } else {
            static_cast<Inner *>(left)->parent = root;
            static_cast<Inner *>(right)->parent = root;
        }
        root_ = root;
        ++height_;
        return;
    }

    std::uint32_t pos = 0;
    while (pos < parent->n && parent->children[pos] != left)
        ++pos;
    panicIf(pos == parent->n,
            "ExtentMap: child not found in its parent");
    std::uint32_t insert_idx = pos + 1;

    Inner *target = parent;
    if (parent->n == kNodeCapacity) {
        // Split the parent, pushing its middle key up, then insert
        // into whichever half now owns insert_idx's window.
        constexpr std::uint32_t keep = kNodeCapacity / 2;
        Inner *sibling = allocInner();
        sibling->leafChildren = parent->leafChildren;
        sibling->n = kNodeCapacity - keep;
        const Lba up_key = parent->keys[keep];
        for (std::uint32_t i = keep; i < kNodeCapacity; ++i) {
            sibling->keys[i - keep] = parent->keys[i];
            sibling->children[i - keep] = parent->children[i];
            if (sibling->leafChildren)
                static_cast<Leaf *>(parent->children[i])->parent =
                    sibling;
            else
                static_cast<Inner *>(parent->children[i])->parent =
                    sibling;
        }
        parent->n = keep;
        ++nodeSplits_;
        insertIntoParent(parent, up_key, sibling,
                         /*children_are_leaves=*/false);
        if (insert_idx > keep) {
            target = sibling;
            insert_idx -= keep;
        }
    }

    panicIf(target->n >= kNodeCapacity,
            "ExtentMap: inner node overflow");
    for (std::uint32_t i = target->n; i > insert_idx; --i) {
        target->keys[i] = target->keys[i - 1];
        target->children[i] = target->children[i - 1];
    }
    target->keys[insert_idx] = separator;
    target->children[insert_idx] = right;
    ++target->n;
    if (target->leafChildren)
        static_cast<Leaf *>(right)->parent = target;
    else
        static_cast<Inner *>(right)->parent = target;
}

ExtentMap::Leaf *
ExtentMap::splitLeaf(Leaf *leaf)
{
    constexpr std::uint32_t keep = kNodeCapacity / 2;
    Leaf *right = allocLeaf();
    right->n = leaf->n - keep;
    std::memcpy(right->entries, leaf->entries + keep,
                sizeof(Entry) * right->n);
    leaf->n = keep;

    right->prev = leaf;
    right->next = leaf->next;
    if (leaf->next != nullptr)
        leaf->next->prev = right;
    else
        lastLeaf_ = right;
    leaf->next = right;

    ++nodeSplits_;
    insertIntoParent(leaf, right->entries[0].lba, right,
                     /*children_are_leaves=*/true);
    return right;
}

ExtentMap::Pos
ExtentMap::insertEntry(const Entry &entry)
{
    if (root_ == nullptr) {
        Leaf *leaf = allocLeaf();
        root_ = leaf;
        height_ = 0;
        firstLeaf_ = lastLeaf_ = leaf;
    }

    // Inserts must route through the separators (not the cursor):
    // the routing invariant guarantees the routed leaf is also the
    // globally sorted position.
    Leaf *leaf = descend(entry.lba);
    std::uint32_t lo = firstAtOrAfter(*leaf, entry.lba);
    panicIf(lo < leaf->n && leaf->entries[lo].lba == entry.lba,
            "ExtentMap::mapRange: range not cleared");

    if (leaf->n == kNodeCapacity) {
        Leaf *right = splitLeaf(leaf);
        // Equal-to-separator routes left (duplicates panic above),
        // matching the strictly-greater window check.
        if (lo > leaf->n) {
            lo -= leaf->n;
            leaf = right;
        }
    }

    std::memmove(leaf->entries + lo + 1, leaf->entries + lo,
                 sizeof(Entry) * (leaf->n - lo));
    leaf->entries[lo] = entry;
    ++leaf->n;
    ++entryCount_;
    cursor_ = leaf;
    return {leaf, lo};
}

void
ExtentMap::collapseRoot()
{
    while (height_ > 0) {
        Inner *root = static_cast<Inner *>(root_);
        if (root->n > 1)
            return;
        panicIf(root->n == 0, "ExtentMap: empty inner root");
        root_ = root->children[0];
        if (root->leafChildren)
            static_cast<Leaf *>(root_)->parent = nullptr;
        else
            static_cast<Inner *>(root_)->parent = nullptr;
        freeInner(root);
        --height_;
    }
}

void
ExtentMap::removeChild(Inner *parent, const void *child)
{
    std::uint32_t pos = 0;
    while (pos < parent->n && parent->children[pos] != child)
        ++pos;
    panicIf(pos == parent->n,
            "ExtentMap: freed child not found in its parent");
    for (std::uint32_t i = pos + 1; i < parent->n; ++i) {
        parent->keys[i - 1] = parent->keys[i];
        parent->children[i - 1] = parent->children[i];
    }
    --parent->n;

    if (parent->n == 0) {
        // Single-child chains below the root are never rebalanced,
        // so a drained inner node cascades its own removal upward;
        // a drained root means the tree is empty.
        if (parent == root_) {
            freeInner(parent);
            root_ = nullptr;
            height_ = 0;
            return;
        }
        Inner *grand = parent->parent;
        freeInner(parent);
        removeChild(grand, parent);
        return;
    }
    if (parent == root_)
        collapseRoot();
}

void
ExtentMap::removeLeaf(Leaf *leaf)
{
    if (leaf->prev != nullptr)
        leaf->prev->next = leaf->next;
    else
        firstLeaf_ = leaf->next;
    if (leaf->next != nullptr)
        leaf->next->prev = leaf->prev;
    else
        lastLeaf_ = leaf->prev;

    Inner *parent = leaf->parent;
    freeLeaf(leaf);
    if (parent == nullptr) {
        // The leaf was the root.
        root_ = nullptr;
        height_ = 0;
        firstLeaf_ = lastLeaf_ = nullptr;
        return;
    }
    removeChild(parent, leaf);
}

ExtentMap::Pos
ExtentMap::erasePos(Pos p)
{
    Leaf *leaf = p.leaf;
    std::memmove(leaf->entries + p.idx, leaf->entries + p.idx + 1,
                 sizeof(Entry) * (leaf->n - p.idx - 1));
    --leaf->n;
    --entryCount_;

    if (leaf->n == 0) {
        Leaf *following = leaf->next;
        removeLeaf(leaf);
        return following != nullptr ? Pos{following, 0} : Pos{};
    }
    if (p.idx < leaf->n)
        return p;
    return leaf->next != nullptr ? Pos{leaf->next, 0} : Pos{};
}

void
ExtentMap::splitAt(Lba sector)
{
    Pos p = upperBound(sector);
    if (!tryPrev(p))
        return;
    Entry &entry = p.leaf->entries[p.idx];
    if (entry.lba >= sector || entry.lba + entry.count <= sector)
        return;

    const SectorCount left_count = sector - entry.lba;
    const Entry right{sector, entry.pba + left_count,
                      entry.count - left_count};
    entry.count = left_count;
    insertEntry(right);
}

void
ExtentMap::eraseRange(Lba lo, Lba hi,
                      std::vector<SectorExtent> *displaced)
{
    Pos it = lowerBound(lo);
    while (it.leaf != nullptr && it.leaf->entries[it.idx].lba < hi) {
        const Entry &entry = it.leaf->entries[it.idx];
        panicIf(entry.lba + entry.count > hi,
                "ExtentMap::eraseRange: entry crosses range end");
        if (displaced != nullptr)
            displaced->push_back(
                SectorExtent{entry.pba, entry.count});
        mappedSectors_ -= entry.count;
        it = erasePos(it);
    }
}

ExtentMap::Pos
ExtentMap::tryMergeWithPrev(Pos p)
{
    if (p.leaf == nullptr)
        return p;
    Pos prev_pos = p;
    if (!tryPrev(prev_pos))
        return p;
    Entry &prev = prev_pos.leaf->entries[prev_pos.idx];
    const Entry &cur = p.leaf->entries[p.idx];
    const bool lba_adjacent = prev.lba + prev.count == cur.lba;
    const bool pba_adjacent = prev.pba + prev.count == cur.pba;
    if (!lba_adjacent || !pba_adjacent)
        return p;
    // The merged run lives where prev already is, so its leaf keeps
    // entries inside its routed window; erasing cur only shifts
    // entries after it, leaving prev's slot intact.
    prev.count += cur.count;
    erasePos(p);
    return prev_pos;
}

bool
ExtentMap::mapWithinLeaf(Leaf &leaf, Lba lba, Pba pba,
                         SectorCount count,
                         std::vector<SectorExtent> *displaced)
{
    Entry *const entries = leaf.entries;
    const std::uint32_t n = leaf.n;
    const Lba end = lba + count;

    // [first, last) are the entries starting inside [lba, end). As
    // end lies below the leaf's window end, any entry starting
    // before end is in this leaf or an earlier one, and so is any
    // entry starting at end.
    const std::uint32_t first = firstAtOrAfter(leaf, lba);
    std::uint32_t last = first;
    while (last < n && entries[last].lba < end)
        ++last;

    // The entry before the write is cut or merged only in this
    // leaf; the previous leaf's last entry must stay as it is.
    Entry *left = first > 0 ? &entries[first - 1] : nullptr;
    if (left == nullptr && leaf.prev != nullptr) {
        const Entry &pred = leaf.prev->entries[leaf.prev->n - 1];
        const Lba pred_end = pred.lba + pred.count;
        if (pred_end > lba ||
            (pred_end == lba && pred.pba + pred.count == pba))
            return false;
    }
    const Lba left_end = left != nullptr ? left->lba + left->count : 0;

    // The at most three survivors, coalesced as splitting, erasing,
    // inserting and merging with both neighbours would: the left
    // remnant (or the predecessor), the new run, and the right
    // remnant (or the successor).
    const bool merge_left = left != nullptr && left_end >= lba &&
                            left->pba + (lba - left->lba) == pba;
    Entry run{lba, pba, count};
    const Entry *straddler = last > first ? &entries[last - 1] : left;
    bool has_right = straddler != nullptr &&
                     straddler->lba + straddler->count > end;
    Entry right{};
    if (has_right)
        right = Entry{end, straddler->pba + (end - straddler->lba),
                      straddler->lba + straddler->count - end};
    std::uint32_t keep_from = last;
    if (has_right && right.pba == pba + count) {
        run.count += right.count;
        has_right = false;
    } else if (!has_right && last < n && entries[last].lba == end &&
               entries[last].pba == pba + count) {
        run.count += entries[last].count;
        ++keep_from;
    }

    const std::uint32_t placed =
        (merge_left ? 0u : 1u) + (has_right ? 1u : 0u);
    const std::uint32_t new_n = first + placed + (n - keep_from);
    if (new_n > kNodeCapacity)
        return false;

    // Report the covered pieces in LBA order: the cut-off tail of
    // the left entry, then each entry starting inside the range.
    SectorCount dropped = 0;
    auto drop = [&](Pba from, SectorCount sectors) {
        if (displaced != nullptr)
            displaced->push_back(SectorExtent{from, sectors});
        dropped += sectors;
    };
    if (left_end > lba) {
        drop(left->pba + (lba - left->lba),
             std::min(left_end, end) - lba);
        left->count = lba - left->lba;
    }
    for (std::uint32_t i = first; i < last; ++i)
        drop(entries[i].pba,
             std::min(entries[i].lba + entries[i].count, end) -
                 entries[i].lba);

    if (first + placed != keep_from)
        std::memmove(entries + first + placed, entries + keep_from,
                     sizeof(Entry) * (n - keep_from));
    std::uint32_t slot = first;
    if (merge_left)
        left->count += run.count;
    else
        entries[slot++] = run;
    if (has_right)
        entries[slot] = right;

    leaf.n = new_n;
    entryCount_ = entryCount_ - n + new_n;
    mappedSectors_ = mappedSectors_ - dropped + count;
    cursor_ = &leaf;
    return true;
}

void
ExtentMap::mapRange(Lba lba, Pba pba, SectorCount count,
                    std::vector<SectorExtent> *displaced)
{
    panicIf(count == 0, "ExtentMap::mapRange: empty range");
    const Lba end = lba + count;

    // One descent; a range ending inside the routed leaf's window
    // is rewritten in that leaf alone. Every key the pass writes
    // (the left remnant's start, lba, end) is in that window.
    Lba window_end = 0;
    Leaf *leaf = descend(lba, &window_end);
    if (leaf != nullptr && end < window_end &&
        mapWithinLeaf(*leaf, lba, pba, count, displaced))
        return;

    // Otherwise carve out the target range, then drop whatever was
    // inside it.
    splitAt(lba);
    splitAt(end);
    eraseRange(lba, end, displaced);

    Pos it = insertEntry(Entry{lba, pba, count});
    mappedSectors_ += count;

    // Coalesce with both neighbors where logically and physically
    // contiguous.
    it = tryMergeWithPrev(it);
    Pos after = it;
    next(after);
    if (after.leaf != nullptr)
        tryMergeWithPrev(after);
}

void
ExtentMap::translateInto(const SectorExtent &extent,
                         SegmentBuffer &out) const
{
    out.clear();
    if (extent.empty())
        return;

    Lba cursor = extent.start;
    const Lba end = extent.end();

    Pos it = upperBound(cursor);
    tryPrev(it);

    auto emit_hole = [&out](Lba from, Lba to) {
        out.push(Segment{SectorExtent{from, to - from}, from, false});
    };

    for (; it.leaf != nullptr && it.leaf->entries[it.idx].lba < end;
         next(it)) {
        const Entry &entry = it.leaf->entries[it.idx];
        const Lba entry_end = entry.lba + entry.count;
        if (entry_end <= cursor)
            continue;
        if (entry.lba > cursor)
            emit_hole(cursor, entry.lba);
        const Lba seg_lba = std::max(cursor, entry.lba);
        const Lba seg_end = std::min(end, entry_end);
        out.push(Segment{SectorExtent{seg_lba, seg_end - seg_lba},
                         entry.pba + (seg_lba - entry.lba), true});
        cursor = seg_end;
        if (cursor >= end)
            break;
    }
    if (it.leaf != nullptr)
        cursor_ = it.leaf;
    if (cursor < end)
        emit_hole(cursor, end);
}

std::vector<Segment>
ExtentMap::translate(const SectorExtent &extent) const
{
    SegmentBuffer buffer;
    translateInto(extent, buffer);
    return std::move(buffer).take();
}

std::size_t
ExtentMap::fragmentCount(const SectorExtent &extent) const
{
    if (extent.empty())
        return 0;

    std::size_t fragments = 0;
    Lba cursor = extent.start;
    const Lba end = extent.end();

    Pos it = upperBound(cursor);
    tryPrev(it);

    for (; it.leaf != nullptr && it.leaf->entries[it.idx].lba < end;
         next(it)) {
        const Entry &entry = it.leaf->entries[it.idx];
        const Lba entry_end = entry.lba + entry.count;
        if (entry_end <= cursor)
            continue;
        if (entry.lba > cursor)
            ++fragments; // hole before this entry
        ++fragments;     // the mapped run
        cursor = std::min(end, entry_end);
        if (cursor >= end)
            break;
    }
    if (it.leaf != nullptr)
        cursor_ = it.leaf;
    if (cursor < end)
        ++fragments; // trailing hole
    return fragments;
}

} // namespace logseek::stl
