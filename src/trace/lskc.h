/**
 * @file
 * Columnar binary trace format ("LSKC") with zero-copy mmap replay.
 *
 * LSKC stores a trace's records as three parallel columns laid out
 * exactly the way the replay engine's IoEventBatch consumes them,
 * so an mmap'd file replays with no per-record decode and no heap
 * copy at all — the batch columns are bound straight into the
 * mapping. Layout:
 *
 *   preamble  magic "LSKC" | version u32 | headerLen u32
 *             | headerCrc u32 (CRC-32 of the header bytes)
 *   header    recordCount u64 | addressSpaceEnd u64
 *             | nameLen u32 | name bytes
 *             | 3 x section { offset u64, byteLen u64, crc u32 }
 *   sections  extents    recordCount x SectorExtent (16 bytes)
 *             timestamps recordCount x u64
 *             types      recordCount x u8 (0 = read, 1 = write)
 *
 * All integers little-endian; every section starts at a
 * kLskcSectionAlign-aligned offset so the extent column can be
 * reinterpreted in place. The CRC follows the LCKP framing
 * convention (util/checkpoint.h): nothing in the file
 * is trusted until its checksum verifies, so truncation, torn
 * writes and bit flips surface as typed DataLoss errors at open —
 * never as a crash or a silently wrong replay (the fault-sweep
 * test pins this). See docs/ingestion.md.
 */

#ifndef LOGSEEK_TRACE_LSKC_H
#define LOGSEEK_TRACE_LSKC_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "trace/input.h"
#include "trace/trace.h"
#include "util/status.h"

namespace logseek::trace
{

/** Current columnar trace format version. */
inline constexpr std::uint32_t kLskcVersion = 1;

/** Bytes before the header: magic + version + headerLen +
 *  headerCrc. */
inline constexpr std::size_t kLskcPreambleBytes = 16;

/** Alignment of every section start, in bytes. */
inline constexpr std::size_t kLskcSectionAlign = 64;

/** Bytes one record contributes to each column. */
inline constexpr std::size_t kLskcExtentBytes = 16;
inline constexpr std::size_t kLskcTimestampBytes = 8;
inline constexpr std::size_t kLskcTypeBytes = 1;

/**
 * Write `input`'s records to an LSKC file. Streams the three
 * columns in three passes (reset() between them), so memory stays
 * bounded by one I/O buffer even for workloads far larger than
 * RAM. The output is deterministic: the same record stream always
 * produces the same bytes. Unavailable on I/O failure, DataLoss
 * when the input does not reproduce the same records across
 * passes.
 */
Status tryWriteLskcFile(const std::string &path, TraceInput &input);

/** Convenience overload for an in-RAM trace. */
Status tryWriteLskcFile(const std::string &path,
                        const Trace &trace);

/**
 * A read-only mmap of one file, shared by every view into it; the
 * mapping lives until the last holder drops its reference.
 */
class MappedFile
{
  public:
    /** Map `path` read-only. NotFound when it cannot be opened,
     *  Unavailable when the map itself fails, DataLoss for an
     *  empty file. */
    static StatusOr<std::shared_ptr<const MappedFile>>
    tryMap(const std::string &path);

    ~MappedFile();
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const std::byte *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    MappedFile(std::byte *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::byte *data_;
    std::size_t size_;
};

/** Validated pointers into an mmap'd LSKC file's columns. */
struct LskcLayout
{
    std::string name;
    std::uint64_t recordCount = 0;
    Lba addressSpaceEnd = 0;
    const SectorExtent *extents = nullptr;
    const std::uint64_t *timestamps = nullptr;
    const IoType *types = nullptr;
};

/**
 * Zero-copy TraceInput over an mmap'd LSKC file: next() binds the
 * batch columns straight into the mapping. Holds a share of the
 * MappedFile, so a view outlives the source it came from.
 */
class LskcView final : public TraceInput
{
  public:
    /** `layout` is copied (it is a name plus column pointers), so
     *  the view only depends on the mapping it co-owns. */
    LskcView(std::shared_ptr<const MappedFile> file,
             LskcLayout layout)
        : file_(std::move(file)), layout_(std::move(layout))
    {
    }

    const std::string &name() const override
    {
        return layout_.name;
    }
    Lba addressSpaceEnd() const override
    {
        return layout_.addressSpaceEnd;
    }

    std::size_t
    next(IoEventBatch &batch, std::size_t max) override
    {
        const std::uint64_t left = layout_.recordCount - pos_;
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(max, left));
        if (n == 0)
            return 0;
        batch.bind(layout_.extents + pos_,
                   layout_.timestamps + pos_,
                   layout_.types + pos_, n);
        pos_ += n;
        return n;
    }

    void reset() override { pos_ = 0; }

    std::optional<std::uint64_t> sizeHint() const override
    {
        return layout_.recordCount;
    }

  private:
    std::shared_ptr<const MappedFile> file_;
    LskcLayout layout_;
    std::uint64_t pos_ = 0;
};

/**
 * A shared, fully-validated LSKC file: tryOpen() maps the file and
 * verifies the complete structure (magic, version, header CRC,
 * section bounds/alignment/CRCs, type values, addressSpaceEnd
 * consistency) before any record is served, so views opened from
 * it never have to re-check. Counted in trace_mmap_opens_total.
 */
class LskcSource final : public TraceSource
{
  public:
    static StatusOr<std::shared_ptr<const LskcSource>>
    tryOpen(const std::string &path);

    const std::string &name() const override
    {
        return layout_.name;
    }

    std::unique_ptr<TraceInput> open() const override
    {
        return std::make_unique<LskcView>(file_, layout_);
    }

    std::optional<std::uint64_t> sizeHint() const override
    {
        return layout_.recordCount;
    }

    Lba addressSpaceEnd() const
    {
        return layout_.addressSpaceEnd;
    }

  private:
    LskcSource(std::shared_ptr<const MappedFile> file,
               LskcLayout layout)
        : file_(std::move(file)), layout_(std::move(layout))
    {
    }

    std::shared_ptr<const MappedFile> file_;
    LskcLayout layout_;
};

/** Open and materialize an LSKC file into an in-RAM Trace. */
StatusOr<Trace> tryReadLskcFile(const std::string &path);

} // namespace logseek::trace

#endif // LOGSEEK_TRACE_LSKC_H
