/**
 * @file
 * A record-list TraceInput for the replay tests.
 */

#ifndef LOGSEEK_TESTS_STL_COUNTING_INPUT_H
#define LOGSEEK_TESTS_STL_COUNTING_INPUT_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/input.h"

namespace logseek::stl
{

/** A TraceInput over a record list that counts the records it hands
 *  out. Unlike a Trace, it accepts a malformed record. */
class CountingInput final : public trace::TraceInput
{
  public:
    explicit CountingInput(std::vector<trace::IoRecord> records)
        : records_(std::move(records))
    {
        for (const auto &record : records_)
            end_ = std::max(end_, record.extent.end());
    }

    const std::string &name() const override { return name_; }
    Lba addressSpaceEnd() const override { return end_; }

    std::size_t
    next(trace::IoEventBatch &batch, std::size_t max) override
    {
        batch.clear();
        while (batch.size() < max && pos_ < records_.size())
            batch.append(records_[pos_++]);
        pulled += batch.size();
        return batch.size();
    }

    void reset() override { pos_ = 0; }

    std::uint64_t pulled = 0;

  private:
    std::string name_ = "counted";
    std::vector<trace::IoRecord> records_;
    std::size_t pos_ = 0;
    Lba end_ = 0;
};

} // namespace logseek::stl

#endif // LOGSEEK_TESTS_STL_COUNTING_INPUT_H
