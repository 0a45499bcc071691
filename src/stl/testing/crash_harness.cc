#include "crash_harness.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "stl/fsck.h"
#include "stl/testing/reference_extent_map.h"
#include "util/status.h"

namespace logseek::stl::testing
{

namespace
{

/** splitmix64: one well-mixed draw per distinct input. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a fold of one 64-bit word into the running digest. */
void
fold(std::uint64_t &digest, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (word >> (8 * i)) & 0xffU;
        digest *= 1099511628211ULL;
    }
}

void
foldBytes(std::uint64_t &digest, const std::string &bytes)
{
    fold(digest, bytes.size());
    for (const char c : bytes) {
        digest ^= static_cast<unsigned char>(c);
        digest *= 1099511628211ULL;
    }
}

const char *
kindName(TranslationKind kind)
{
    switch (kind) {
    case TranslationKind::Conventional:
        return "NoLS";
    case TranslationKind::LogStructured:
        return "LS";
    case TranslationKind::FiniteLogStructured:
        return "FiniteLS";
    case TranslationKind::MediaCache:
        return "MediaCache";
    }
    return "?";
}

/** Replay a scanned record prefix into the differential oracle. */
void
replayIntoOracle(const std::vector<JournalRecord> &records,
                 ReferenceExtentMap &oracle)
{
    for (const JournalRecord &record : records) {
        switch (record.kind) {
        case JournalRecordKind::Placement:
            for (const JournalEntry &entry : record.entries)
                oracle.mapRange(entry.lba, entry.pba, entry.count);
            break;
        case JournalRecordKind::MergeReset:
            // The merge returned everything to LBA order; the
            // cache map starts over.
            oracle = ReferenceExtentMap{};
            break;
        case JournalRecordKind::SegmentReset:
            // Reclaims free media, never logical mappings.
            break;
        }
    }
}

std::string
describeSegment(const Segment &segment)
{
    std::ostringstream out;
    out << "[lba " << segment.logical.start << "+"
        << segment.logical.count << " -> pba " << segment.pba
        << (segment.mapped ? " mapped" : " hole") << "]";
    return out.str();
}

/** `segments` after the engine's contiguity merge. */
SegmentBuffer
merged(const std::vector<Segment> &segments)
{
    SegmentBuffer out;
    for (const Segment &segment : segments)
        out.push(segment);
    mergePhysicallyContiguousInPlace(out);
    return out;
}

/**
 * Compare the mounted layer's translation of the whole logical
 * space against the oracle's, after the engine's contiguity merge.
 * Empty string on agreement.
 */
std::string
compareAgainstOracle(const TranslationLayer &layer,
                     const ReferenceExtentMap &oracle,
                     Lba address_space_end)
{
    const SectorExtent whole{0, address_space_end};
    const SegmentBuffer got = merged(layer.translateRead(whole));
    const SegmentBuffer want = merged(oracle.translate(whole));
    if (got.size() != want.size()) {
        std::ostringstream out;
        out << "segment count " << got.size() << " != oracle "
            << want.size();
        return out.str();
    }
    for (std::size_t i = 0; i < got.size(); ++i)
        if (!(got[i] == want[i]))
            return "segment " + std::to_string(i) + ": got " +
                   describeSegment(got[i]) + " want " +
                   describeSegment(want[i]);
    return {};
}

/** True when `prefix` is a byte-prefix of `image`. */
bool
isBytePrefix(const std::string &prefix, const std::string &image)
{
    return prefix.size() <= image.size() &&
           image.compare(0, prefix.size(), prefix) == 0;
}

/** Context for verifying one crash point of one cell. */
struct CrashPointCheck
{
    const CrashCase &c;
    const SimConfig &config;
    Lba addressSpaceEnd = 0;
    const std::string &referenceImage;
    const std::vector<JournalRecord> &referenceRecords;
    std::uint64_t crashPoint = 0;

    std::string
    fail(const std::string &what) const
    {
        std::ostringstream out;
        out << c.label() << " @crash " << crashPoint << ": "
            << what;
        return out.str();
    }

    /**
     * The shared back half of every crash point: the surviving
     * image must be an accounting prefix of the reference, the
     * remount must pass Fsck, and the remounted state must equal
     * the oracle replay of the surviving records.
     */
    void
    verify(SegmentJournal &journal, CrashMatrixResult &result) const
    {
        if (!isBytePrefix(journal.image(), referenceImage)) {
            result.failure = fail(
                "crashed journal image is not a byte-prefix of "
                "the uncrashed reference image");
            return;
        }

        const JournalScan scan = scanJournal(journal.image());
        if (scan.records.size() > referenceRecords.size()) {
            result.failure =
                fail("recovered more epochs than the reference "
                     "run produced");
            return;
        }
        for (std::size_t i = 0; i < scan.records.size(); ++i)
            if (!(scan.records[i] == referenceRecords[i])) {
                result.failure = fail(
                    "recovered record " + std::to_string(i) +
                    " diverges from the reference scan");
                return;
            }

        // The "new host": a fresh layer with the engine's geometry.
        const std::unique_ptr<TranslationLayer> remounted =
            makeTranslationLayer(config, addressSpaceEnd);
        const MountStats stats =
            remounted->mountFromJournal(journal);
        result.epochsApplied += stats.epochsApplied;
        result.tornTails += stats.tornTails;
        result.damagedFrames += stats.damagedFrames;
        result.truncatedEpochs += stats.truncatedEpochs;

        const FsckReport fsck =
            Fsck::check(*remounted, journal);
        result.entriesChecked += fsck.checkedEntries;
        if (!fsck.ok()) {
            result.failure = fail("fsck: " + fsck.toString());
            return;
        }

        if (config.translation != TranslationKind::Conventional) {
            ReferenceExtentMap oracle;
            replayIntoOracle(scan.records, oracle);
            const std::string diff = compareAgainstOracle(
                *remounted, oracle, addressSpaceEnd);
            if (!diff.empty()) {
                result.failure = fail("oracle: " + diff);
                return;
            }
        } else if (!journal.empty()) {
            result.failure = fail(
                "conventional layer produced journal epochs");
            return;
        }

        ++result.crashesRun;
        foldBytes(result.stateDigest, journal.image());
        fold(result.stateDigest, stats.epochsApplied);
        fold(result.stateDigest, stats.tornTails);
        fold(result.stateDigest, stats.truncatedEpochs);
    }
};

/** The trace's first `ops` records (same name, same geometry). */
trace::Trace
tracePrefix(const trace::Trace &trace, std::size_t ops)
{
    trace::Trace prefix(trace.name());
    for (std::size_t i = 0; i < ops && i < trace.size(); ++i)
        prefix.append(trace[i]);
    return prefix;
}

} // namespace

std::string
CrashCase::label() const
{
    std::ostringstream out;
    out << kindName(kind);
    if (policy == gc::CleaningPolicyKind::CostBenefit)
        out << "+cb";
    else if (policy == gc::CleaningPolicyKind::ZoneGranular)
        out << "+zg";
    if (streams > 1)
        out << "+s" << streams;
    if (zones)
        out << "+zones";
    if (zonedDevice)
        out << "+dev";
    out << "/" << crashEvery;
    return out.str();
}

trace::Trace
crashTrace(std::size_t ops, std::uint64_t seed, Lba address_space)
{
    trace::Trace trace("crash-matrix");
    // The first record pins addressSpaceEnd() so every prefix
    // replays against byte-identical layer geometry.
    trace.appendWrite(address_space - 8, 8);
    // The rest of the traffic hammers a hot quarter of the space:
    // overwrites keep the live set bounded (the finite log must
    // never overcommit) while the written volume still wraps the
    // log and fills the media cache, so cleaning and merges fire.
    const Lba hot = std::max<Lba>(address_space / 4, 64);
    for (std::size_t i = 1; i < ops; ++i) {
        const std::uint64_t draw =
            mix64(seed ^ (0x7472616365ULL + i));
        const SectorCount count = 1 + (draw >> 8) % 16;
        const Lba lba = draw % (hot - count);
        // Roughly 40% reads: reads exercise recovery only through
        // the cleaning/merge work they interleave with.
        if ((draw & 0xffU) < 102 && i > 1)
            trace.appendRead(lba, count);
        else
            trace.appendWrite(lba, count);
    }
    return trace;
}

SimConfig
crashCaseConfig(const CrashCase &c)
{
    SimConfig config;
    config.translation = c.kind;
    if (c.zones)
        // Small zones so a few hundred ops cross several
        // boundaries and the restored crossing count matters.
        config.zones = ZoneConfig{64 * kKiB, 8 * kKiB};
    if (c.kind == TranslationKind::FiniteLogStructured) {
        config.finiteLog.capacityBytes = kMiB;
        config.finiteLog.segmentBytes = 128 * kKiB;
        config.finiteLog.cleanReserveSegments = 2;
        config.finiteLog.cleanTargetSegments = 4;
        config.finiteLog.gc.policy = c.policy;
        config.finiteLog.gc.streams = c.streams;
        // Each extra stream pins another open segment; give the
        // multi-stream cells headroom so the hot-quarter live set
        // never overcommits the log.
        if (c.streams > 1)
            config.finiteLog.capacityBytes = 2 * kMiB;
    }
    if (c.kind == TranslationKind::MediaCache) {
        config.mediaCache.cacheBytes = 256 * kKiB;
        config.mediaCache.mergeThreshold = 0.8;
        config.mediaCache.bandBytes = 64 * kKiB;
    }
    if (c.zonedDevice)
        config.zonedDevice = disk::ZonedDeviceOptions{};
    return config;
}

CrashMatrixResult
runCrashMatrix(const CrashCase &c, const trace::Trace &trace)
{
    CrashMatrixResult result;
    const Lba end = trace.addressSpaceEnd();
    const SimConfig base = crashCaseConfig(c);

    // Uncrashed reference run: its journal image is the ground
    // truth every crashed image must be a prefix of.
    SegmentJournal reference;
    SimConfig ref_config = base;
    ref_config.journal = &reference;
    Simulator(ref_config).run(trace);
    const JournalScan ref_scan = scanJournal(reference.image());
    if (!ref_scan.clean()) {
        result.failure =
            c.label() + ": reference journal did not scan clean";
        return result;
    }

    if (c.zonedDevice) {
        // Device legs: a seeded CrashSchedule kills the device at
        // media write op N; the run must surface DATA_LOSS, and
        // the journal additionally loses a torn tail (the
        // metadata region rides the same power supply).
        for (std::uint64_t n = c.crashEvery;; n += c.crashEvery) {
            SegmentJournal journal;
            SimConfig config = base;
            config.journal = &journal;
            config.zonedDevice->crash = {n, c.seed ^ n};
            const StatusOr<SimResult> run =
                Simulator(config).tryRun(trace);
            const bool crashed = !run.ok();
            if (crashed &&
                run.status().code() != StatusCode::DataLoss) {
                result.failure =
                    c.label() + " @crash " + std::to_string(n) +
                    ": expected DATA_LOSS, got " +
                    run.status().toString();
                return result;
            }
            journal.tearTail(c.seed ^ n);
            const CrashPointCheck check{
                c, base, end, reference.image(),
                ref_scan.records, n};
            check.verify(journal, result);
            if (!result.ok())
                return result;
            // The first crash point past the run's total write
            // count completes normally; the matrix is exhausted.
            if (!crashed)
                break;
        }
        return result;
    }

    // Offline legs: the host dies between trace ops — replay a
    // prefix, then tear the journal's in-flight frame. The final
    // point (the full trace) checks the tear of a complete image.
    for (std::uint64_t n = c.crashEvery;; n += c.crashEvery) {
        const std::uint64_t ops =
            std::min<std::uint64_t>(n, trace.size());
        SegmentJournal journal;
        SimConfig config = base;
        config.journal = &journal;
        Simulator(config).run(tracePrefix(trace, ops));
        journal.tearTail(c.seed ^ ops);
        const CrashPointCheck check{
            c, base, end, reference.image(), ref_scan.records,
            ops};
        check.verify(journal, result);
        if (!result.ok() || ops == trace.size())
            break;
    }
    return result;
}

} // namespace logseek::stl::testing
