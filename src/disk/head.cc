#include "head.h"

#include "util/logging.h"

namespace logseek::disk
{

SeekInfo
DiskHead::access(const SectorExtent &extent, trace::IoType type)
{
    panicIf(extent.empty(), "DiskHead::access: empty extent");
    SeekInfo info;
    info.type = type;
    if (extent.start != expectedNext_) {
        info.seeked = true;
        info.distanceBytes =
            sectorDistanceBytes(expectedNext_, extent.start);
    }
    expectedNext_ = extent.end();
    ++accessCount_;
    return info;
}

void
DiskHead::reset()
{
    expectedNext_ = 0;
    accessCount_ = 0;
}

} // namespace logseek::disk
