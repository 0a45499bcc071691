/**
 * @file
 * Opportunistic defragmentation policy (paper §IV-A, Algorithm 1).
 *
 * After a fragmented read is served, the just-read (and therefore
 * already reassembled) LBA range may be rewritten contiguously at
 * the write frontier, eliminating the fragmentation for future
 * reads at the cost of one extra seek plus the rewrite transfer.
 * The paper's two overhead-limiting knobs are both supported:
 * defragment only ranges with at least N fragments, and only after
 * a fragmented range was accessed at least k times.
 */

#ifndef LOGSEEK_STL_DEFRAG_H
#define LOGSEEK_STL_DEFRAG_H

#include <cstdint>
#include <map>
#include <utility>

#include "util/extent.h"

namespace logseek::stl
{

/** Configuration for opportunistic defragmentation. */
struct DefragConfig
{
    /**
     * Minimum dynamic fragmentation (fragments per read) before a
     * range is defragmented. 2 = any fragmented read (Algorithm 1).
     */
    std::uint32_t minFragments = 2;

    /**
     * Minimum number of fragmented accesses to a range before it is
     * defragmented. 1 = defragment on first fragmented read.
     */
    std::uint32_t minAccesses = 1;
};

/** Decides which fragmented reads trigger a write-back. */
class Defragmenter
{
  public:
    explicit Defragmenter(const DefragConfig &config = {});

    /**
     * Observe a completed read and decide whether to defragment it.
     *
     * @param logical The LBA range just read.
     * @param fragments The read's dynamic fragmentation.
     * @return True if the range should be rewritten at the frontier.
     */
    bool onRead(const SectorExtent &logical, std::size_t fragments);

    /** Number of defragmentations approved so far. */
    std::uint64_t rewriteCount() const { return rewrites_; }

    const DefragConfig &config() const { return config_; }

    /** Ranges currently being counted toward minAccesses. */
    std::size_t trackedRanges() const { return accessCounts_.size(); }

  private:
    DefragConfig config_;
    std::uint64_t rewrites_ = 0;

    /** Fragmented-access count per (lba, count) range; only
     *  consulted when minAccesses > 1, so it stays empty (and
     *  allocates nothing) otherwise. */
    std::map<std::pair<Lba, SectorCount>, std::uint32_t> accessCounts_;
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_DEFRAG_H
