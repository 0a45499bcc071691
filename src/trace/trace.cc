#include "trace.h"

#include <algorithm>

#include "util/logging.h"

namespace logseek::trace
{

const char *
toString(IoType type)
{
    return type == IoType::Read ? "Read" : "Write";
}

void
Trace::append(const IoRecord &record)
{
    panicIf(record.extent.empty(), "Trace::append: empty extent");
    records_.push_back(record);
    addressSpaceEnd_ = std::max(addressSpaceEnd_, record.extent.end());
}

std::uint64_t
Trace::durationUs() const
{
    return records_.empty() ? 0 : records_.back().timestampUs;
}

} // namespace logseek::trace
