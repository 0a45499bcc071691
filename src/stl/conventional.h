/**
 * @file
 * Conventional update-in-place translation (the paper's NoLS
 * baseline): physical address equals logical address, always.
 */

#ifndef LOGSEEK_STL_CONVENTIONAL_H
#define LOGSEEK_STL_CONVENTIONAL_H

#include "stl/translation_layer.h"

namespace logseek::stl
{

/**
 * Identity translation. Reads and writes go to the sectors named by
 * their LBAs, as on a conventional (CMR) drive; the written space is
 * never fragmented.
 */
class ConventionalLayer : public TranslationLayer
{
  public:
    void translateReadInto(const SectorExtent &extent,
                           SegmentBuffer &out) const override;

    void placeWriteInto(const SectorExtent &extent,
                        SegmentBuffer &out) override;

    std::size_t staticFragmentCount() const override { return 0; }

    std::string name() const override { return "conventional"; }
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_CONVENTIONAL_H
