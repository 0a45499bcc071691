/**
 * @file
 * In-memory block trace: an ordered sequence of IoRecords plus a
 * workload name.
 */

#ifndef LOGSEEK_TRACE_TRACE_H
#define LOGSEEK_TRACE_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.h"

namespace logseek::trace
{

/**
 * An ordered block trace. Records are stored in issue order; the
 * simulator and all analyses iterate it front to back.
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Append a record (records must be appended in issue order). */
    void append(const IoRecord &record);

    /** Append a read request. */
    void
    appendRead(Lba lba, SectorCount sectors, std::uint64_t time_us = 0)
    {
        append(makeRead(lba, sectors, time_us));
    }

    /** Append a write request. */
    void
    appendWrite(Lba lba, SectorCount sectors, std::uint64_t time_us = 0)
    {
        append(makeWrite(lba, sectors, time_us));
    }

    bool empty() const { return records_.size() == 0; }
    std::size_t size() const { return records_.size(); }

    const IoRecord &operator[](std::size_t i) const { return records_[i]; }

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }

    /**
     * One past the highest sector touched by any record; 0 for an
     * empty trace. This is the address-space size the paper's model
     * needs to place the initial write frontier.
     */
    Lba addressSpaceEnd() const { return addressSpaceEnd_; }

    /** Timestamp of the last record; 0 for an empty trace. */
    std::uint64_t durationUs() const;

  private:
    std::string name_;
    std::vector<IoRecord> records_;
    Lba addressSpaceEnd_ = 0;
};

} // namespace logseek::trace

#endif // LOGSEEK_TRACE_TRACE_H
