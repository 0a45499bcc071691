/**
 * @file
 * Ingestion-path benchmark: how fast trace records get from disk
 * (or a generator) into the replay engine.
 *
 * Legs:
 *  - csv_parse:    MSR CSV text -> Trace (trace/msr_csv.h)
 *  - lskt_decode:  row-major binary -> Trace (trace/binary.h)
 *  - lskc_open:    columnar mmap open + full validation
 *  - lskc_iterate: pulling every record through the zero-copy view
 *                  and reading all three columns of each
 *  - field_parse:  std::from_chars vs strtoull on CSV fields (the
 *                  parser rides from_chars; the ratio is pinned
 *                  here so a regression to locale-aware parsing
 *                  shows up)
 *  - generator:    streaming workload generator record rate
 *  - stream_rss:   growth of the current RSS (sampled from
 *                  /proc/self/statm during the replay, against the
 *                  value just before it) while replaying a streamed
 *                  workload far larger than its chunk; flat = the
 *                  stream never materializes. A positive control
 *                  replays the same records built into an in-RAM
 *                  Trace inside the leg and must grow past the
 *                  same threshold, so the gate can fail.
 *
 * The bench self-checks its contracts and exits non-zero when one
 * does not hold: LSKC mmap-open throughput is at least 10x the CSV
 * parse, replaying the mmap'd file is byte-identical (SimResult
 * operator==, including seekTimeSec bits) to replaying the same
 * records from RAM, the streamed replay stays flat and the
 * materialized control does not.
 *
 * --json=PATH writes the "ingest" section (BENCH_ingest.json is
 * the tracked file, BENCH_ingest.smoke.json the CI artifact);
 * --smoke shrinks the workload for CI.
 */

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "stl/simulator.h"
#include "trace/binary.h"
#include "trace/lskc.h"
#include "trace/msr_csv.h"
#include "util/random.h"
#include "workloads/stream.h"

namespace
{

using namespace logseek;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Current resident set size in bytes (Linux /proc/self/statm). */
std::uint64_t
currentRssBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size_pages = 0;
    std::uint64_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages *
           static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

/** Samples the current RSS every kEvery replayed requests and keeps
 *  the largest sample. */
class RssSampler : public stl::SimObserver
{
  public:
    static constexpr std::uint64_t kEvery = 8192;

    void
    onEvent(const stl::IoEvent &event) override
    {
        (void)event;
        if (++events_ % kEvery == 0)
            peak_ = std::max(peak_, currentRssBytes());
    }

    std::uint64_t peak() const { return peak_; }

  private:
    std::uint64_t events_ = 0;
    std::uint64_t peak_ = 0;
};

/**
 * RSS growth of one replay: the largest sample taken while
 * replaying the source `prepare` builds, minus the RSS just before
 * `prepare` ran (0 if RSS never rose above that).
 */
template <typename Prepare>
std::uint64_t
replayRssGrowth(const stl::SimConfig &config, Prepare prepare)
{
    const std::uint64_t before = currentRssBytes();
    const std::shared_ptr<const trace::TraceSource> source =
        prepare();
    const auto input = source->open();
    RssSampler sampler;
    stl::Simulator simulator(config);
    simulator.addObserver(&sampler);
    (void)simulator.run(*input);
    const std::uint64_t peak = sampler.peak();
    return peak > before ? peak - before : 0;
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

struct Leg
{
    double recordsPerSec = 0.0;
    double mbPerSec = 0.0;
};

Leg
leg(std::uint64_t records, std::uint64_t bytes, double seconds,
    int iters)
{
    Leg out;
    if (seconds > 0.0) {
        out.recordsPerSec =
            static_cast<double>(records) * iters / seconds;
        out.mbPerSec = static_cast<double>(bytes) * iters /
                       seconds / 1e6;
    }
    return out;
}

/** One deterministic synthetic trace for the file-format legs. */
trace::Trace
buildTrace(std::uint64_t records)
{
    workloads::StreamSpec spec =
        workloads::mixedStream("ingest-bench", 1, records);
    workloads::WorkloadStream stream(std::move(spec));
    trace::Trace out = trace::materialize(stream);
    return out;
}

stl::SimConfig
replayConfig()
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::LogStructured;
    return config;
}

std::string
jsonNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.3f", value);
    return buffer;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: perf_ingest [--json=PATH] "
                         "[--smoke]\n";
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return 2;
        }
    }

    const std::uint64_t file_records = smoke ? 60'000 : 400'000;
    const int iters = smoke ? 2 : 5;
    const std::uint64_t stream_chunks = smoke ? 50 : 100;
    const std::uint64_t stream_chunk_records =
        smoke ? 20'000 : 40'000;

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("perf_ingest." + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string csv_path = (dir / "trace.csv").string();
    const std::string lskt_path = (dir / "trace.lskt").string();
    const std::string lskc_path = (dir / "trace.lskc").string();

    const trace::Trace source = buildTrace(file_records);
    {
        std::ofstream csv(csv_path, std::ios::binary);
        trace::writeMsrCsv(csv, source, "bench", 0);
    }
    trace::tryWriteBinaryTraceFile(lskt_path, source).orFatal();
    trace::tryWriteLskcFile(lskc_path, source).orFatal();

    bool ok = true;
    std::uint64_t sink = 0;

    // --- csv_parse ------------------------------------------------
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        auto parsed = trace::tryParseMsrCsvFile(csv_path, "bench");
        parsed.status().orFatal();
        if (parsed.value().trace.size() != source.size()) {
            std::cerr << "csv_parse: record count mismatch\n";
            ok = false;
        }
    }
    const Leg csv_parse = leg(source.size(), fileBytes(csv_path),
                              secondsSince(start), iters);

    // --- lskt_decode ----------------------------------------------
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        trace::tryReadBinaryTraceFile(lskt_path)
            .status()
            .orFatal();
    const Leg lskt_decode = leg(source.size(),
                                fileBytes(lskt_path),
                                secondsSince(start), iters);

    // --- lskc_open (map + full validation, no record pull) --------
    const int open_iters = iters * 4;
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < open_iters; ++i)
        trace::LskcSource::tryOpen(lskc_path).status().orFatal();
    const Leg lskc_open = leg(source.size(), fileBytes(lskc_path),
                              secondsSince(start), open_iters);

    // --- lskc_iterate (zero-copy pull of every record, every
    //     column of each) -------------------------------------------
    auto lskc_source =
        trace::LskcSource::tryOpen(lskc_path).value();
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        auto view = lskc_source->open();
        trace::IoEventBatch batch;
        std::uint64_t pulled = 0;
        for (;;) {
            const std::size_t n = view->next(batch, 4096);
            if (n == 0)
                break;
            pulled += n;
            for (std::size_t k = 0; k < n; ++k) {
                const SectorExtent &extent = batch.extent(k);
                sink += extent.start + extent.count +
                        batch.timestamp(k) +
                        static_cast<std::uint64_t>(batch.type(k));
            }
        }
        if (pulled != source.size()) {
            std::cerr << "lskc_iterate: short pull\n";
            ok = false;
        }
    }
    const Leg lskc_iterate = leg(source.size(),
                                 fileBytes(lskc_path),
                                 secondsSince(start), iters);

    // --- field_parse micro (from_chars vs strtoull) ---------------
    std::vector<std::string> fields;
    {
        Rng rng(7);
        fields.reserve(100'000);
        for (int i = 0; i < 100'000; ++i)
            fields.push_back(std::to_string(
                rng.nextUint(1'000'000'000'000ULL)));
    }
    start = std::chrono::steady_clock::now();
    for (const std::string &field : fields) {
        std::uint64_t value = 0;
        std::from_chars(field.data(),
                        field.data() + field.size(), value);
        sink += value;
    }
    const double from_chars_sec = secondsSince(start);
    start = std::chrono::steady_clock::now();
    for (const std::string &field : fields)
        sink += std::strtoull(field.c_str(), nullptr, 10);
    const double strtoull_sec = secondsSince(start);
    const double field_speedup =
        from_chars_sec > 0.0 ? strtoull_sec / from_chars_sec
                             : 0.0;

    // --- generator (streaming record rate) ------------------------
    workloads::WorkloadStream generator(workloads::mixedStream(
        "ingest-gen", 20, stream_chunk_records));
    start = std::chrono::steady_clock::now();
    {
        trace::IoEventBatch batch;
        std::uint64_t pulled = 0;
        for (;;) {
            const std::size_t n = generator.next(batch, 4096);
            if (n == 0)
                break;
            pulled += n;
        }
        sink += pulled;
    }
    const double generator_records =
        static_cast<double>(20 * stream_chunk_records);
    const double generator_sec = secondsSince(start);
    const double generator_rate =
        generator_sec > 0.0 ? generator_records / generator_sec
                            : 0.0;

    // --- replay byte-identity (RAM vs mmap) -----------------------
    stl::Simulator simulator(replayConfig());
    const stl::SimResult from_ram = simulator.run(source);
    auto lskc_view = lskc_source->open();
    const stl::SimResult from_mmap = simulator.run(*lskc_view);
    const bool identical = from_ram == from_mmap;
    if (!identical) {
        std::cerr << "FAIL: LSKC mmap replay diverged from the "
                     "in-RAM replay\n";
        ok = false;
    }

    // --- stream_rss (flat-memory streaming replay) ----------------
    // The replay runs under the conventional layer, whose state does
    // not grow with the trace, so any growth is the input's own. The
    // streamed leg runs first so the control's freed trace cannot be
    // recycled into it.
    const std::uint64_t stream_records =
        stream_chunks * stream_chunk_records;
    const std::uint64_t materialized_bytes =
        stream_records * sizeof(trace::IoRecord);
    const workloads::StreamSpec stream_spec = workloads::mixedStream(
        "ingest-stream", stream_chunks, stream_chunk_records);
    stl::SimConfig flat_config;
    flat_config.translation = stl::TranslationKind::Conventional;
    const std::uint64_t rss_delta =
        replayRssGrowth(flat_config, [&] {
            return std::make_shared<const workloads::StreamSource>(
                stream_spec);
        });
    // Positive control: the same records materialized inside the
    // leg. A measurement that cannot see this growth is blind.
    const std::uint64_t control_delta =
        replayRssGrowth(flat_config, [&] {
            workloads::WorkloadStream records(stream_spec);
            return std::make_shared<const trace::InMemoryTraceSource>(
                trace::materialize(records));
        });
    // A stream that secretly materialized would grow RSS by
    // ~materialized_bytes; flat means a small fraction of it.
    const std::uint64_t rss_threshold = materialized_bytes / 4;
    const bool rss_flat = rss_delta < rss_threshold;
    const bool control_grew = control_delta >= rss_threshold;
    if (!rss_flat) {
        std::cerr << "FAIL: streaming replay grew RSS by "
                  << rss_delta << " bytes ("
                  << materialized_bytes
                  << " bytes materialized equivalent)\n";
        ok = false;
    }
    if (!control_grew) {
        std::cerr << "FAIL: the materialized control grew RSS by "
                     "only "
                  << control_delta << " bytes (>= " << rss_threshold
                  << " required); the RSS probe is blind\n";
        ok = false;
    }

    // Records/s is the unit comparable across formats (a CSV
    // record is ~2.5x the bytes of an LSKC one).
    const double open_vs_csv =
        csv_parse.recordsPerSec > 0.0
            ? lskc_open.recordsPerSec / csv_parse.recordsPerSec
            : 0.0;
    if (open_vs_csv < 10.0) {
        std::cerr << "FAIL: LSKC mmap-open throughput is only "
                  << jsonNumber(open_vs_csv)
                  << "x the CSV parse (>= 10x required)\n";
        ok = false;
    }

    std::ostringstream json;
    json << "{\n  \"ingest\": {\n";
    json << "    \"records\": " << source.size() << ",\n";
    json << "    \"csv_parse\": {\"records_per_sec\": "
         << jsonNumber(csv_parse.recordsPerSec)
         << ", \"mb_per_sec\": "
         << jsonNumber(csv_parse.mbPerSec) << "},\n";
    json << "    \"lskt_decode\": {\"records_per_sec\": "
         << jsonNumber(lskt_decode.recordsPerSec)
         << ", \"mb_per_sec\": "
         << jsonNumber(lskt_decode.mbPerSec) << "},\n";
    json << "    \"lskc_open\": {\"records_per_sec\": "
         << jsonNumber(lskc_open.recordsPerSec)
         << ", \"mb_per_sec\": "
         << jsonNumber(lskc_open.mbPerSec) << "},\n";
    json << "    \"lskc_iterate\": {\"records_per_sec\": "
         << jsonNumber(lskc_iterate.recordsPerSec)
         << ", \"mb_per_sec\": "
         << jsonNumber(lskc_iterate.mbPerSec) << "},\n";
    json << "    \"lskc_open_vs_csv_parse\": "
         << jsonNumber(open_vs_csv) << ",\n";
    json << "    \"field_parse\": {\"from_chars_sec\": "
         << jsonNumber(from_chars_sec * 1e3)
         << ", \"strtoull_sec\": "
         << jsonNumber(strtoull_sec * 1e3)
         << ", \"speedup\": " << jsonNumber(field_speedup)
         << "},\n";
    json << "    \"generator_records_per_sec\": "
         << jsonNumber(generator_rate) << ",\n";
    json << "    \"lskc_replay_identical\": "
         << (identical ? "true" : "false") << ",\n";
    json << "    \"stream_rss\": {\"records\": " << stream_records
         << ", \"materialized_mb\": "
         << jsonNumber(static_cast<double>(materialized_bytes) /
                       1e6)
         << ", \"rss_delta_mb\": "
         << jsonNumber(static_cast<double>(rss_delta) / 1e6)
         << ", \"flat\": " << (rss_flat ? "true" : "false")
         << ", \"control_rss_delta_mb\": "
         << jsonNumber(static_cast<double>(control_delta) / 1e6)
         << ", \"control_grew\": "
         << (control_grew ? "true" : "false") << "}\n";
    json << "  }\n}\n";

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << json.str();
        if (!out) {
            std::cerr << "cannot write " << json_path << "\n";
            ok = false;
        }
    }

    std::cout << "perf_ingest (" << source.size()
              << " records, sink " << (sink & 1) << ")\n"
              << "  csv_parse     "
              << jsonNumber(csv_parse.mbPerSec) << " MB/s\n"
              << "  lskt_decode   "
              << jsonNumber(lskt_decode.mbPerSec) << " MB/s\n"
              << "  lskc_open     "
              << jsonNumber(lskc_open.mbPerSec) << " MB/s ("
              << jsonNumber(open_vs_csv) << "x csv)\n"
              << "  lskc_iterate  "
              << jsonNumber(lskc_iterate.mbPerSec) << " MB/s\n"
              << "  field_parse   " << jsonNumber(field_speedup)
              << "x vs strtoull\n"
              << "  generator     " << jsonNumber(generator_rate)
              << " records/s\n"
              << "  replay identical: "
              << (identical ? "yes" : "NO") << "\n"
              << "  stream RSS delta "
              << jsonNumber(static_cast<double>(rss_delta) / 1e6)
              << " MB over "
              << jsonNumber(static_cast<double>(
                                materialized_bytes) /
                            1e6)
              << " MB materialized equivalent ("
              << (rss_flat ? "flat" : "NOT FLAT") << "); control "
              << jsonNumber(static_cast<double>(control_delta) / 1e6)
              << " MB (" << (control_grew ? "grew" : "DID NOT GROW")
              << ")\n";

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return ok ? 0 : 1;
}
