#include "lskc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sys/mman.h>
#include <sys/stat.h>
#include <type_traits>
#include <unistd.h>

#include "telemetry/metrics.h"
#include "telemetry/trace_writer.h"
#include "util/checkpoint.h"
#include "util/logging.h"

namespace logseek::trace
{

// The zero-copy contract: the on-disk extent column IS an array of
// SectorExtent, byte for byte, and the type column IS an array of
// IoType. These asserts pin every assumption the reinterpret_cast
// in tryOpen relies on; if any of them ever breaks, the format
// needs an explicit decode step, not a silent cast.
static_assert(std::endian::native == std::endian::little,
              "LSKC zero-copy replay requires a little-endian "
              "host");
static_assert(std::is_trivially_copyable_v<SectorExtent> &&
                  sizeof(SectorExtent) == kLskcExtentBytes &&
                  offsetof(SectorExtent, start) == 0 &&
                  offsetof(SectorExtent, count) == 8,
              "SectorExtent layout no longer matches the LSKC "
              "extent column");
static_assert(sizeof(IoType) == kLskcTypeBytes &&
                  static_cast<std::uint8_t>(IoType::Read) == 0 &&
                  static_cast<std::uint8_t>(IoType::Write) == 1,
              "IoType encoding no longer matches the LSKC type "
              "column");

namespace
{

constexpr std::array<char, 4> kMagic{'L', 'S', 'K', 'C'};

/** Upper bound on a plausible trace name: a larger nameLen is
 *  corruption, not a reason to allocate gigabytes. */
constexpr std::uint32_t kMaxNameBytes = 64 * 1024;

constexpr std::size_t kSectionCount = 3;
constexpr std::size_t kSectionDescBytes = 8 + 8 + 4;
constexpr std::size_t kIoBufferBytes = 256 * 1024;

const char *const kSectionNames[kSectionCount] = {
    "extents", "timestamps", "types"};
constexpr std::size_t kElemBytes[kSectionCount] = {
    kLskcExtentBytes, kLskcTimestampBytes, kLskcTypeBytes};

void
putLe32(std::string &out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(
            static_cast<char>((value >> (8 * i)) & 0xff));
}

void
putLe64(std::string &out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(
            static_cast<char>((value >> (8 * i)) & 0xff));
}

/** Bounds-checked little-endian reader over the mapped header. */
class ByteCursor
{
  public:
    ByteCursor(const std::byte *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool
    u32(std::uint32_t &out)
    {
        if (size_ - pos_ < 4)
            return false;
        out = 0;
        for (std::size_t i = 0; i < 4; ++i)
            out |= static_cast<std::uint32_t>(
                       std::to_integer<unsigned char>(
                           data_[pos_ + i]))
                   << (8 * i);
        pos_ += 4;
        return true;
    }

    bool
    u64(std::uint64_t &out)
    {
        if (size_ - pos_ < 8)
            return false;
        out = 0;
        for (std::size_t i = 0; i < 8; ++i)
            out |= static_cast<std::uint64_t>(
                       std::to_integer<unsigned char>(
                           data_[pos_ + i]))
                   << (8 * i);
        pos_ += 8;
        return true;
    }

    bool
    bytes(std::string &out, std::size_t n)
    {
        if (size_ - pos_ < n)
            return false;
        out.assign(reinterpret_cast<const char *>(data_ + pos_),
                   n);
        pos_ += n;
        return true;
    }

  private:
    const std::byte *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** One column's location in the file, as stored in the header. */
struct SectionDesc
{
    std::uint64_t offset = 0;
    std::uint64_t byteLen = 0;
    std::uint32_t crc = 0;
};

std::uint64_t
alignUp(std::uint64_t offset)
{
    const std::uint64_t align = kLskcSectionAlign;
    return (offset + align - 1) / align * align;
}

/** Buffered section writer: streams bytes to the file while
 *  folding them into a running CRC. */
class SectionWriter
{
  public:
    explicit SectionWriter(std::ofstream &out) : out_(out)
    {
        buffer_.reserve(kIoBufferBytes);
    }

    void
    write(std::string_view data)
    {
        bytes_ += data.size();
        crc_.update(data);
        buffer_.append(data);
        if (buffer_.size() >= kIoBufferBytes)
            flush();
    }

    void
    flush()
    {
        out_.write(buffer_.data(),
                   static_cast<std::streamsize>(buffer_.size()));
        buffer_.clear();
    }

    std::uint64_t bytes() const { return bytes_; }
    std::uint32_t crc() const { return crc_.value(); }

  private:
    std::ofstream &out_;
    std::string buffer_;
    Crc32 crc_;
    std::uint64_t bytes_ = 0;
};

/** Serialize the header (everything the preamble's CRC guards). */
std::string
encodeHeader(
    std::uint64_t record_count, Lba address_space_end,
    const std::string &name,
    const std::array<SectionDesc, kSectionCount> &sections)
{
    std::string header;
    putLe64(header, record_count);
    putLe64(header, address_space_end);
    putLe32(header, static_cast<std::uint32_t>(name.size()));
    header.append(name);
    for (const SectionDesc &s : sections) {
        putLe64(header, s.offset);
        putLe64(header, s.byteLen);
        putLe32(header, s.crc);
    }
    return header;
}

} // namespace

Status
tryWriteLskcFile(const std::string &path, TraceInput &input)
{
    const telemetry::ScopedSpan span("lskc-write:" + input.name(),
                                     "ingest");
    // Reject the name before opening `path`: opening truncates it,
    // and a rejected write must leave an existing file intact.
    const std::string name = input.name();
    if (name.size() > kMaxNameBytes)
        return invalidArgumentError(
            "lskc trace '" + name + "': name exceeds " +
            std::to_string(kMaxNameBytes) + " bytes");
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        const int saved_errno = errno;
        return unavailableError("cannot create trace file: " +
                                path + ": " +
                                std::strerror(saved_errno));
    }
    const std::size_t header_len =
        8 + 8 + 4 + name.size() +
        kSectionCount * kSectionDescBytes;

    // The preamble and a zeroed header go out first so the section
    // passes can stream straight after them; the real header (its
    // counts and CRCs are only known at the end) is patched in
    // over the zeros last, making a torn write detectable — a file
    // whose header CRC never landed fails open.
    out.write(kMagic.data(), kMagic.size());
    {
        std::string preamble;
        putLe32(preamble, kLskcVersion);
        putLe32(preamble, static_cast<std::uint32_t>(header_len));
        putLe32(preamble, 0); // headerCrc patched in below
        out.write(preamble.data(),
                  static_cast<std::streamsize>(preamble.size()));
    }
    {
        const std::string zeros(header_len, '\0');
        out.write(zeros.data(),
                  static_cast<std::streamsize>(zeros.size()));
    }

    const Lba address_space_end = input.addressSpaceEnd();
    std::array<SectionDesc, kSectionCount> sections;
    std::uint64_t offset = kLskcPreambleBytes + header_len;
    std::uint64_t record_count = 0;
    IoEventBatch batch;
    std::string scratch;
    constexpr std::size_t kBatch = 4096;

    // One streaming pass per column; the input's reset() contract
    // (identical records on every pass) is what makes this correct
    // with bounded memory, and the per-pass record counts double
    // as a cheap check of that contract.
    for (std::size_t section = 0; section < kSectionCount;
         ++section) {
        const std::uint64_t aligned = alignUp(offset);
        if (aligned > offset) {
            const std::string pad(aligned - offset, '\0');
            out.write(pad.data(),
                      static_cast<std::streamsize>(pad.size()));
        }
        offset = aligned;

        input.reset();
        SectionWriter writer(out);
        std::uint64_t pass_records = 0;
        for (;;) {
            const std::size_t n = input.next(batch, kBatch);
            if (n == 0)
                break;
            pass_records += n;
            scratch.clear();
            for (std::size_t i = 0; i < n; ++i) {
                switch (section) {
                case 0:
                    putLe64(scratch, batch.extent(i).start);
                    putLe64(scratch, batch.extent(i).count);
                    break;
                case 1:
                    putLe64(scratch, batch.timestamp(i));
                    break;
                default:
                    scratch.push_back(static_cast<char>(
                        static_cast<std::uint8_t>(
                            batch.type(i))));
                    break;
                }
            }
            writer.write(scratch);
            if (!out)
                return unavailableError(
                    "lskc trace '" + name + "': short write");
        }
        writer.flush();
        if (!out)
            return unavailableError("lskc trace '" + name +
                                    "': short write");

        if (section == 0)
            record_count = pass_records;
        else if (pass_records != record_count)
            return dataLossError(
                "lskc trace '" + name +
                "': input produced a different record count on "
                "pass " +
                std::to_string(section + 1) + " (" +
                std::to_string(pass_records) + " vs " +
                std::to_string(record_count) + ")");

        sections[section] =
            SectionDesc{offset, writer.bytes(), writer.crc()};
        offset += writer.bytes();
    }

    const std::string header = encodeHeader(
        record_count, address_space_end, name, sections);
    out.seekp(static_cast<std::streamoff>(kLskcPreambleBytes));
    out.write(header.data(),
              static_cast<std::streamsize>(header.size()));
    std::string crc_bytes;
    putLe32(crc_bytes, crc32(header));
    out.seekp(12); // headerCrc slot in the preamble
    out.write(crc_bytes.data(),
              static_cast<std::streamsize>(crc_bytes.size()));
    out.flush();
    if (!out)
        return unavailableError("lskc trace '" + name +
                                "': flush failed");
    return Status();
}

Status
tryWriteLskcFile(const std::string &path, const Trace &trace)
{
    TraceRef ref(trace);
    return tryWriteLskcFile(path, ref);
}

StatusOr<std::shared_ptr<const MappedFile>>
MappedFile::tryMap(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        const int saved_errno = errno;
        return notFoundError("cannot open trace file: " + path +
                             ": " + std::strerror(saved_errno));
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int saved_errno = errno;
        ::close(fd);
        return unavailableError("cannot stat trace file: " +
                                path + ": " +
                                std::strerror(saved_errno));
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
        ::close(fd);
        return dataLossError("lskc trace '" + path +
                             "': empty file");
    }
    // MAP_POPULATE prefaults the whole mapping in one batch, which
    // is far cheaper than taking a minor fault per 4K page while
    // the open-time CRC streams over the file.
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;
#endif
    void *base = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
        const int saved_errno = errno;
        return unavailableError("cannot mmap trace file: " +
                                path + ": " +
                                std::strerror(saved_errno));
    }
    return std::shared_ptr<const MappedFile>(new MappedFile(
        static_cast<std::byte *>(base), size));
}

MappedFile::~MappedFile()
{
    ::munmap(data_, size_);
}

StatusOr<std::shared_ptr<const LskcSource>>
LskcSource::tryOpen(const std::string &path)
{
    const telemetry::ScopedSpan span("lskc-open:" + path,
                                     "ingest");
    StatusOr<std::shared_ptr<const MappedFile>> file_or =
        MappedFile::tryMap(path);
    if (!file_or.ok())
        return file_or.status();
    std::shared_ptr<const MappedFile> file =
        std::move(file_or).value();
    const std::byte *data = file->data();
    const std::size_t size = file->size();

    const auto corrupt = [&path](const std::string &why) {
        return dataLossError("lskc trace '" + path + "': " + why);
    };

    if (size < kLskcPreambleBytes)
        return corrupt("file shorter than the preamble");
    if (std::memcmp(data, kMagic.data(), kMagic.size()) != 0)
        return corrupt("bad magic");

    ByteCursor preamble(data + kMagic.size(),
                        kLskcPreambleBytes - kMagic.size());
    std::uint32_t version = 0;
    std::uint32_t header_len = 0;
    std::uint32_t header_crc = 0;
    preamble.u32(version);
    preamble.u32(header_len);
    preamble.u32(header_crc);
    if (version != kLskcVersion)
        return invalidArgumentError(
            "lskc trace '" + path + "': unsupported version " +
            std::to_string(version));
    constexpr std::size_t kFixedHeaderBytes =
        8 + 8 + 4 + kSectionCount * kSectionDescBytes;
    if (header_len < kFixedHeaderBytes ||
        header_len > size - kLskcPreambleBytes)
        return corrupt("header length out of bounds");

    const std::string_view header_bytes(
        reinterpret_cast<const char *>(data + kLskcPreambleBytes),
        header_len);
    if (crc32(header_bytes) != header_crc)
        return corrupt("header CRC mismatch");

    ByteCursor cursor(data + kLskcPreambleBytes, header_len);
    std::uint64_t record_count = 0;
    std::uint64_t address_space_end = 0;
    std::uint32_t name_len = 0;
    std::string name;
    cursor.u64(record_count);
    cursor.u64(address_space_end);
    cursor.u32(name_len);
    if (name_len > kMaxNameBytes)
        return corrupt("implausible name length " +
                       std::to_string(name_len));
    if (!cursor.bytes(name, name_len))
        return corrupt("truncated header");
    std::array<SectionDesc, kSectionCount> sections;
    for (SectionDesc &s : sections) {
        if (!cursor.u64(s.offset) || !cursor.u64(s.byteLen) ||
            !cursor.u32(s.crc))
            return corrupt("truncated header");
    }

    // Structural validation: every byte a view will ever serve is
    // checked here, once, so the replay hot path can trust the
    // mapping unconditionally.
    if (record_count > size)
        return corrupt("record count exceeds the file size");
    for (std::size_t i = 0; i < kSectionCount; ++i) {
        const SectionDesc &s = sections[i];
        const std::string col(kSectionNames[i]);
        if (s.byteLen != record_count * kElemBytes[i])
            return corrupt(col + " section length mismatch");
        if (s.offset % kLskcSectionAlign != 0)
            return corrupt(col + " section misaligned");
        if (s.offset > size || s.byteLen > size - s.offset)
            return corrupt(col + " section out of bounds");
        const std::string_view body(
            reinterpret_cast<const char *>(data) + s.offset,
            static_cast<std::size_t>(s.byteLen));
        if (crc32(body) != s.crc)
            return corrupt(col + " section CRC mismatch");
    }

    LskcLayout layout;
    layout.name = std::move(name);
    layout.recordCount = record_count;
    layout.addressSpaceEnd = address_space_end;
    layout.extents = reinterpret_cast<const SectorExtent *>(
        data + sections[0].offset);
    layout.timestamps = reinterpret_cast<const std::uint64_t *>(
        data + sections[1].offset);
    layout.types = reinterpret_cast<const IoType *>(
        data + sections[2].offset);

    // Record-level validation before any record is served:
    // no empty extents, no overflowing sector ranges, only valid
    // type codes, and an address-space bound that really covers
    // the extent column. The fast pass is
    // branchless (one accumulated flag) so it vectorizes; only a
    // failing file pays for the per-record re-scan that names the
    // first bad record.
    bool bad = false;
    for (std::uint64_t i = 0; i < record_count; ++i) {
        const SectorExtent &extent = layout.extents[i];
        const std::uint64_t end = extent.start + extent.count;
        bad |= (extent.count == 0) | (end < extent.start) |
               (end > address_space_end) |
               (static_cast<std::uint8_t>(layout.types[i]) > 1);
    }
    if (bad) {
        for (std::uint64_t i = 0; i < record_count; ++i) {
            const SectorExtent &extent = layout.extents[i];
            if (extent.count == 0)
                return corrupt("zero-length record at record " +
                               std::to_string(i));
            if (extent.start + extent.count < extent.start)
                return corrupt("sector range overflow at record " +
                               std::to_string(i));
            if (extent.start + extent.count > address_space_end)
                return corrupt(
                    "record " + std::to_string(i) +
                    " reaches past the header's addressSpaceEnd");
            if (static_cast<std::uint8_t>(layout.types[i]) > 1)
                return corrupt("invalid record type at record " +
                               std::to_string(i));
        }
    }

    auto &registry = telemetry::Registry::global();
    registry.counter("trace_mmap_opens_total").add();
    registry.counter("ingest_bytes_total", "format=\"lskc\"")
        .add(size);
    registry.counter("ingest_records_total", "format=\"lskc\"")
        .add(record_count);

    return std::shared_ptr<const LskcSource>(
        new LskcSource(std::move(file), std::move(layout)));
}

StatusOr<Trace>
tryReadLskcFile(const std::string &path)
{
    StatusOr<std::shared_ptr<const LskcSource>> source =
        LskcSource::tryOpen(path);
    if (!source.ok())
        return source.status();
    std::unique_ptr<TraceInput> input = source.value()->open();
    return materialize(*input);
}

} // namespace logseek::trace
