#include "profiles.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <optional>

#include "util/logging.h"
#include "util/random.h"
#include "workloads/builder.h"
#include "workloads/phases.h"

namespace logseek::workloads
{

namespace
{

/**
 * Full parameterization of one named profile. Write and read mixes
 * are fractions of the (scaled) Table I budgets; any slack goes to
 * the Random category. See profiles.h and DESIGN.md §3 for how each
 * knob maps to a behavior the paper observes.
 */
struct Spec
{
    const char *name;
    const char *suite;
    const char *os;
    std::uint64_t reads;
    std::uint64_t writes;
    double meanWriteKiB;
    const char *behavior;

    int days = 7;

    // Write mix.
    double wUpdate = 0.0;   ///< random updates inside the scan region
    double wMisorder = 0.0; ///< mis-ordered runs (misPattern)
    double wShuffle = 0.0;  ///< locally shuffled sequential areas
    double wSeq = 0.0;      ///< seqStreams interleaved streams
    double wRandom = 0.0;   ///< churn over a dedicated random area
    std::uint32_t seqStreams = 1;
    MisorderPattern misPattern = MisorderPattern::Descending;

    // Read mix.
    double rScan = 0.0;     ///< sequential scans of the scan region
    double rHot = 0.0;      ///< zipf chunk reads of the hot pool
    double rRun = 0.0;      ///< ascending re-reads of recent runs
    double rTemporal = 0.0; ///< replay of recent writes
    double rRandom = 0.0;   ///< uniform reads over the whole space

    // Knobs.
    std::uint64_t scanRegionMiB = 0;
    bool scanFresh = false;      ///< new scan region every day

    /**
     * Size each day's scan region so the daily scan-read budget
     * covers it about once — scan-once behavior, the case where
     * opportunistic defragmentation pays its seek with no payback.
     */
    bool scanOncePerDay = false;
    bool prepShuffleScan = false; ///< day-0 shuffled fill of region
    double prepShuffleFrac = 1.0; ///< fraction of windows shuffled
    std::uint64_t hotPoolMiB = 0;
    double hotSkew = 1.1;

    /**
     * Hot reads at arbitrary (sector-unaligned) offsets inside the
     * pool instead of aligned chunk reads. Overlapping reads make
     * opportunistic defragmentation splinter the area instead of
     * healing it, while PBA-keyed selective caching still wins —
     * the w20 pattern where defragmentation hurts.
     */
    bool hotUnaligned = false;

    /** Fragments each hot chunk is split into at prep time. */
    std::uint32_t hotPieces = 4;
    std::uint32_t writeIoKiB = 16;
    std::uint32_t readIoKiB = 32;

    /**
     * Io size of scan-region updates; 0 = writeIoKiB. Reads become
     * fragmented only when they span several update extents, so
     * profiles whose mechanisms act on scans keep this well below
     * readIoKiB.
     */
    std::uint32_t updateIoKiB = 0;

    /** Io size of mis-ordered/shuffled runs; 0 = writeIoKiB. */
    std::uint32_t runIoKiB = 0;

    std::uint32_t runIos = 32;        ///< ios per mis-ordered run
    std::uint32_t shuffleWindowIos = 16;

    /**
     * Volume capacity in GiB; 0 = just the touched space. When set,
     * the generator probes the last sector once (as an OS partition
     * scan would), so the log-structured write frontier lands above
     * the full volume — the far-log placement that gives the newer
     * CloudPhysics traces their multi-GB LS seek distances in paper
     * Figure 4.
     */
    std::uint64_t diskGiB = 0;
};

/** Deterministic 64-bit hash of a workload name (FNV-1a). */
std::uint64_t
hashName(const char *name)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char *p = name; *p != '\0'; ++p) {
        hash ^= static_cast<unsigned char>(*p);
        hash *= 1099511628211ULL;
    }
    return hash;
}

// Table I numbers come straight from the paper; behavior strings
// summarize the archetype each profile realizes (DESIGN.md §3).
const Spec kSpecs[] = {
    // ------------------------------ MSR ------------------------------
    {.name = "usr_0", .suite = "MSR", .os = "Microsoft Windows",
     .reads = 904483, .writes = 1333406, .meanWriteKiB = 10.2,
     .behavior = "write-dominant user volume, temporally correlated reads",
     .wUpdate = 0.15, .wSeq = 0.2, .wRandom = 0.65, .seqStreams = 4,
     .rScan = 0.1, .rHot = 0.2, .rTemporal = 0.3, .rRandom = 0.4,
     .scanRegionMiB = 32, .hotPoolMiB = 16,
     .writeIoKiB = 10, .readIoKiB = 40},

    {.name = "usr_1", .suite = "MSR", .os = "Microsoft Windows",
     .reads = 41426266, .writes = 3857714, .meanWriteKiB = 15.2,
     .behavior = "repeated large scans over a fragmented user volume",
     .wUpdate = 0.7, .wRandom = 0.3,
     .rScan = 0.5, .rTemporal = 0.05, .rRandom = 0.45,
     .scanRegionMiB = 1024,
     .writeIoKiB = 15, .readIoKiB = 52},

    {.name = "src2_2", .suite = "MSR", .os = "Microsoft Windows",
     .reads = 350930, .writes = 805955, .meanWriteKiB = 51.1,
     .behavior = "write-dominant with mis-ordered bursts, scan-once reads",
     .wUpdate = 0.1, .wMisorder = 0.25, .wSeq = 0.15, .wRandom = 0.5,
     .seqStreams = 4,
     .rScan = 0.35, .rRun = 0.15, .rTemporal = 0.2, .rRandom = 0.3,
     .scanRegionMiB = 48, .scanFresh = true, .scanOncePerDay = true,
     .writeIoKiB = 51, .readIoKiB = 64, .updateIoKiB = 16},

    {.name = "hm_1", .suite = "MSR", .os = "Microsoft Windows",
     .reads = 580896, .writes = 28415, .meanWriteKiB = 19.9,
     .behavior = "read-dominated re-reads of mis-ordered descending bursts",
     .wUpdate = 0.2, .wMisorder = 0.8,
     .misPattern = MisorderPattern::ChunkedDescending,
     .rHot = 0.55, .rRun = 0.2, .rRandom = 0.25,
     .scanRegionMiB = 16, .hotPoolMiB = 8, .hotSkew = 1.2,
     .writeIoKiB = 20, .readIoKiB = 80},

    {.name = "web_0", .suite = "MSR", .os = "Microsoft Windows",
     .reads = 606487, .writes = 1423458, .meanWriteKiB = 8.5,
     .behavior = "write-dominant web cache with hot fragmented objects",
     .wUpdate = 0.1, .wSeq = 0.2, .wRandom = 0.7, .seqStreams = 4,
     .rHot = 0.35, .rTemporal = 0.25, .rRandom = 0.4,
     .scanRegionMiB = 16, .hotPoolMiB = 8, .hotSkew = 1.3,
     .writeIoKiB = 8, .readIoKiB = 28},

    {.name = "wdev_0", .suite = "MSR", .os = "Microsoft Windows",
     .reads = 229529, .writes = 913732, .meanWriteKiB = 8.2,
     .behavior = "write-dominant development server",
     .wUpdate = 0.1, .wSeq = 0.1, .wRandom = 0.8, .seqStreams = 2,
     .rHot = 0.2, .rTemporal = 0.3, .rRandom = 0.5,
     .scanRegionMiB = 16, .hotPoolMiB = 8,
     .writeIoKiB = 8, .readIoKiB = 12},

    {.name = "mds_0", .suite = "MSR", .os = "Microsoft Windows",
     .reads = 143973, .writes = 1067061, .meanWriteKiB = 7.2,
     .behavior = "write-dominant media server metadata",
     .wUpdate = 0.1, .wSeq = 0.1, .wRandom = 0.8, .seqStreams = 2,
     .rHot = 0.2, .rTemporal = 0.3, .rRandom = 0.5,
     .scanRegionMiB = 16, .hotPoolMiB = 8,
     .writeIoKiB = 7, .readIoKiB = 22},

    {.name = "rsrch_0", .suite = "MSR", .os = "Microsoft Windows",
     .reads = 133625, .writes = 1300030, .meanWriteKiB = 8.7,
     .behavior = "write-dominant research project store",
     .wUpdate = 0.1, .wSeq = 0.1, .wRandom = 0.8, .seqStreams = 2,
     .rHot = 0.2, .rTemporal = 0.3, .rRandom = 0.5,
     .scanRegionMiB = 16, .hotPoolMiB = 8,
     .writeIoKiB = 8, .readIoKiB = 10},

    {.name = "ts_0", .suite = "MSR", .os = "Microsoft Windows",
     .reads = 316692, .writes = 1485042, .meanWriteKiB = 8.0,
     .behavior = "write-dominant terminal server",
     .wUpdate = 0.1, .wSeq = 0.1, .wRandom = 0.8, .seqStreams = 2,
     .rHot = 0.2, .rTemporal = 0.3, .rRandom = 0.5,
     .scanRegionMiB = 16, .hotPoolMiB = 8,
     .writeIoKiB = 8, .readIoKiB = 13},

    // -------------------------- CloudPhysics --------------------------
    {.name = "w84", .suite = "CloudPhysics",
     .os = "Red Hat Enterprise Linux 5",
     .reads = 655397, .writes = 4158838, .meanWriteKiB = 31.2,
     .behavior = "sequential streams plus mis-ordered runs, re-read "
                 "ascending (prefetch-sensitive)",
     .wUpdate = 0.1, .wMisorder = 0.2, .wSeq = 0.6, .wRandom = 0.1,
     .rRun = 0.6, .rTemporal = 0.1, .rRandom = 0.3,
     .scanRegionMiB = 16,
     .writeIoKiB = 31, .readIoKiB = 124, .diskGiB = 4},

    {.name = "w95", .suite = "CloudPhysics",
     .os = "Microsoft Windows Server 2008",
     .reads = 1264721, .writes = 2672520, .meanWriteKiB = 10.8,
     .behavior = "interleaved write pairs re-read ascending "
                 "(prefetch-sensitive)",
     .wUpdate = 0.1, .wMisorder = 0.5, .wSeq = 0.2, .wRandom = 0.2,
     .misPattern = MisorderPattern::InterleavedPair,
     .rHot = 0.15, .rRun = 0.55, .rTemporal = 0.1, .rRandom = 0.2,
     .scanRegionMiB = 16, .hotPoolMiB = 16,
     .writeIoKiB = 11, .readIoKiB = 44, .diskGiB = 4},

    {.name = "w64", .suite = "CloudPhysics",
     .os = "Microsoft Windows Server 2008 R2",
     .reads = 6434453, .writes = 1023814, .meanWriteKiB = 37.8,
     .behavior = "read-heavy repeated scans, moderately fragmented",
     .wUpdate = 0.6, .wSeq = 0.2, .wRandom = 0.2,
     .rScan = 0.5, .rHot = 0.15, .rRandom = 0.35,
     .scanRegionMiB = 256, .hotPoolMiB = 32,
     .writeIoKiB = 38, .readIoKiB = 64, .updateIoKiB = 16, .diskGiB = 6},

    {.name = "w93", .suite = "CloudPhysics",
     .os = "Microsoft Windows Server 2003",
     .reads = 2928984, .writes = 422470, .meanWriteKiB = 28.3,
     .behavior = "scan-once reporting over updated tables "
                 "(defragmentation-hostile)",
     .wUpdate = 0.7, .wRandom = 0.3,
     .rScan = 0.5, .rHot = 0.2, .rRandom = 0.3,
     .scanRegionMiB = 64, .scanFresh = true, .scanOncePerDay = true,
     .hotPoolMiB = 24, .hotUnaligned = true, .hotPieces = 2,
     .writeIoKiB = 28, .readIoKiB = 40, .updateIoKiB = 14, .diskGiB = 4},

    {.name = "w20", .suite = "CloudPhysics",
     .os = "Microsoft Windows Server 2003",
     .reads = 19652684, .writes = 10189634, .meanWriteKiB = 34.25,
     .behavior = "large scan-once sweeps plus hot index re-reads "
                 "(defragmentation-hostile, cache-friendly)",
     .wUpdate = 0.8, .wSeq = 0.1, .wRandom = 0.1,
     .rScan = 0.65, .rHot = 0.15, .rRandom = 0.2,
     .scanRegionMiB = 192, .scanFresh = true, .scanOncePerDay = true,
     .hotPoolMiB = 48, .hotSkew = 1.2, .hotUnaligned = true,
     .hotPieces = 2,
     .writeIoKiB = 34, .readIoKiB = 123},

    {.name = "w91", .suite = "CloudPhysics",
     .os = "Microsoft Windows Server 2003",
     .reads = 3147384, .writes = 1169222, .meanWriteKiB = 17.1,
     .behavior = "repeated scans of a small shuffled-written region "
                 "(log-sensitive star)",
     .wSeq = 0.5, .wRandom = 0.5,
     .rScan = 0.95, .rRandom = 0.05,
     .scanRegionMiB = 40, .prepShuffleScan = true,
     .prepShuffleFrac = 0.25,
     .writeIoKiB = 17, .readIoKiB = 64, .runIoKiB = 16,
     .shuffleWindowIos = 8, .diskGiB = 4},

    {.name = "w76", .suite = "CloudPhysics",
     .os = "Microsoft Windows Server 2008 R2",
     .reads = 258852, .writes = 5817421, .meanWriteKiB = 35.7,
     .behavior = "write-dominant random churn",
     .wUpdate = 0.1, .wSeq = 0.1, .wRandom = 0.8, .seqStreams = 2,
     .rHot = 0.2, .rTemporal = 0.2, .rRandom = 0.6,
     .scanRegionMiB = 16, .hotPoolMiB = 16,
     .writeIoKiB = 36, .readIoKiB = 120, .diskGiB = 4},

    {.name = "w36", .suite = "CloudPhysics",
     .os = "Red Hat Enterprise Linux 5",
     .reads = 113090, .writes = 18802536, .meanWriteKiB = 141.8,
     .behavior = "extreme write dominance, interleaved large streams",
     .wUpdate = 0.1, .wSeq = 0.4, .wRandom = 0.5, .seqStreams = 4,
     .rHot = 0.5, .rRandom = 0.5,
     .scanRegionMiB = 16, .hotPoolMiB = 16, .hotSkew = 1.4,
     .writeIoKiB = 142, .readIoKiB = 64, .diskGiB = 8},

    {.name = "w89", .suite = "CloudPhysics",
     .os = "Microsoft Windows Server 2008 R2",
     .reads = 1536898, .writes = 2089042, .meanWriteKiB = 31.7,
     .behavior = "balanced updates and repeated scans",
     .wUpdate = 0.5, .wSeq = 0.3, .wRandom = 0.2,
     .rScan = 0.45, .rHot = 0.15, .rRandom = 0.4,
     .scanRegionMiB = 96, .hotPoolMiB = 24,
     .writeIoKiB = 32, .readIoKiB = 77, .diskGiB = 4},

    {.name = "w106", .suite = "CloudPhysics",
     .os = "Microsoft Windows Server 2003 Standard",
     .reads = 576666, .writes = 2699254, .meanWriteKiB = 21.2,
     .behavior = "small-scale shuffled writes (highest mis-ordered "
                 "fraction), run re-reads",
     .wUpdate = 0.1, .wMisorder = 0.2, .wShuffle = 0.3, .wRandom = 0.4,
     .misPattern = MisorderPattern::InterleavedPair,
     .rRun = 0.4, .rTemporal = 0.2, .rRandom = 0.4,
     .scanRegionMiB = 16,
     .writeIoKiB = 21, .readIoKiB = 84, .shuffleWindowIos = 8, .diskGiB = 4},

    {.name = "w55", .suite = "CloudPhysics",
     .os = "Microsoft Windows Server 2008 R2",
     .reads = 7797622, .writes = 1057909, .meanWriteKiB = 18.2,
     .behavior = "read-heavy with periodic scan bursts (diurnal "
                 "seek-overhead swings)",
     .days = 14,
     .wUpdate = 0.4, .wSeq = 0.3, .wRandom = 0.3,
     .rScan = 0.3, .rHot = 0.3, .rRandom = 0.4,
     .scanRegionMiB = 64, .hotPoolMiB = 32,
     .writeIoKiB = 18, .readIoKiB = 20, .updateIoKiB = 5, .diskGiB = 4},

    {.name = "w33", .suite = "CloudPhysics",
     .os = "Red Hat Enterprise Linux 5",
     .reads = 7603814, .writes = 8013607, .meanWriteKiB = 31.6,
     .behavior = "heavy updates under repeated scans (cache-friendly)",
     .wUpdate = 0.6, .wRandom = 0.4,
     .rScan = 0.4, .rHot = 0.3, .rRandom = 0.3,
     .scanRegionMiB = 128, .hotPoolMiB = 48, .hotSkew = 1.2,
     .writeIoKiB = 32, .readIoKiB = 32, .updateIoKiB = 8, .diskGiB = 6},
};

constexpr std::size_t kSpecCount = std::size(kSpecs);

const Spec *
findSpec(const std::string &name)
{
    for (const Spec &spec : kSpecs) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

/** Sector count of a MiB quantity. */
SectorCount
mibToSectors(std::uint64_t mib)
{
    return bytesToSectors(mib * kMiB);
}

/**
 * Generates one profile. The address space is laid out as
 * [scan regions][hot pool][run area][stream area][random area];
 * every category's budget is computed up front so regions never
 * collide.
 */
class ProfileEngine
{
  public:
    ProfileEngine(const Spec &spec, const ProfileOptions &options)
        : spec_(spec),
          rng_(options.seed ^ hashName(spec.name)),
          builder_(spec.name, /*interarrival_us=*/800)
    {
        panicIf(options.scale <= 0.0,
                "ProfileOptions: scale must be positive");
        totalReads_ = scaleCount(spec.reads, options.scale);
        totalWrites_ = scaleCount(spec.writes, options.scale);
        writeIo_ = kibToSectors(spec.writeIoKiB);
        readIo_ = kibToSectors(spec.readIoKiB);
        updateIo_ = kibToSectors(
            spec.updateIoKiB != 0 ? spec.updateIoKiB
                                  : spec.writeIoKiB);
        runIo_ = kibToSectors(
            spec.runIoKiB != 0 ? spec.runIoKiB : spec.writeIoKiB);
        layout();
    }

    trace::Trace
    build()
    {
        prepare();
        const int days = std::max(1, spec_.days);
        for (int day = 0; day < days; ++day) {
            runDay(day, days);
            builder_.idle(4ULL * 3600 * 1000 * 1000); // overnight
        }
        return builder_.take();
    }

  private:
    static SectorCount
    kibToSectors(std::uint32_t kib)
    {
        return std::max<SectorCount>(1, bytesToSectors(
            static_cast<std::uint64_t>(kib) * kKiB));
    }

    static std::uint64_t
    scaleCount(std::uint64_t table_count, double scale)
    {
        const double scaled =
            static_cast<double>(table_count) * scale;
        return std::max<std::uint64_t>(
            400, static_cast<std::uint64_t>(std::llround(scaled)));
    }

    void
    layout()
    {
        const int days = std::max(1, spec_.days);

        // Read budgets first: scan-once sizing depends on them.
        auto rshare = [&](double frac) {
            return static_cast<std::uint64_t>(
                frac * static_cast<double>(totalReads_));
        };
        scanReadOps_ = rshare(spec_.rScan);
        hotReadOps_ = spec_.hotPoolMiB > 0 ? rshare(spec_.rHot) : 0;
        runReadOps_ = rshare(spec_.rRun);
        temporalReadOps_ = rshare(spec_.rTemporal);
        const std::uint64_t rassigned = scanReadOps_ + hotReadOps_ +
                                        runReadOps_ +
                                        temporalReadOps_;
        if (rassigned > totalReads_)
            panic(std::string("profile ") + spec_.name +
                  ": read fractions exceed 1");
        randomReadOps_ = totalReads_ - rassigned;

        scanRegionSectors_ = mibToSectors(spec_.scanRegionMiB);
        if (spec_.scanOncePerDay && scanReadOps_ > 0) {
            const std::uint64_t per_day =
                scanReadOps_ / static_cast<std::uint64_t>(days);
            scanRegionSectors_ =
                std::max<SectorCount>(readIo_, per_day * readIo_);
        }
        const std::uint64_t scan_slots =
            spec_.scanFresh ? static_cast<std::uint64_t>(days) : 1;
        scanAreaStart_ = 0;
        const SectorCount scan_area =
            scanRegionSectors_ * scan_slots;

        hotPoolStart_ = scanAreaStart_ + scan_area;
        SectorCount hot_sectors = mibToSectors(spec_.hotPoolMiB);
        if (hot_sectors > 0) {
            // Hot chunks are read as one request and fragmented into
            // four interleaved pieces at prep time.
            hotChunk_ = std::max<SectorCount>(readIo_, 8);
            hotSubIo_ = std::max<SectorCount>(
                hotChunk_ / std::max<std::uint32_t>(1,
                                                    spec_.hotPieces),
                1);
            const std::uint64_t chunks = hot_sectors / hotChunk_;
            hot_sectors = chunks * hotChunk_;
            std::uint64_t prep_ops =
                hot_sectors / hotSubIo_;
            // Never let prep consume more than 40% of the write
            // budget; shrink the pool instead.
            const std::uint64_t prep_cap =
                std::max<std::uint64_t>(1, totalWrites_ * 2 / 5);
            if (prep_ops > prep_cap) {
                const std::uint64_t max_chunks =
                    prep_cap * hotSubIo_ / hotChunk_;
                hot_sectors =
                    std::max<SectorCount>(hotChunk_,
                                          max_chunks * hotChunk_);
                prep_ops = hot_sectors / hotSubIo_;
            }
            hotPrepOps_ = prep_ops;
        }
        hotPoolSectors_ = hot_sectors;

        // Day-0 shuffled fill of the scan region also counts against
        // the write budget.
        if (spec_.prepShuffleScan && scanRegionSectors_ > 0)
            shufflePrepOps_ = scanRegionSectors_ / runIo_;

        std::uint64_t budget = totalWrites_;
        const std::uint64_t prep_total = hotPrepOps_ + shufflePrepOps_;
        budget -= std::min(budget, prep_total);

        auto share = [&](double frac) {
            return static_cast<std::uint64_t>(
                frac * static_cast<double>(budget));
        };
        updateOps_ = share(spec_.wUpdate);
        misorderOps_ = share(spec_.wMisorder);
        shuffleOps_ = share(spec_.wShuffle);
        seqOps_ = share(spec_.wSeq);
        const std::uint64_t assigned =
            updateOps_ + misorderOps_ + shuffleOps_ + seqOps_;
        if (assigned > budget)
            panic(std::string("profile ") + spec_.name +
                  ": write fractions exceed 1");
        randomWriteOps_ = budget - assigned;

        // If the hot pool was disabled or shrunk away, fold its
        // read budget into random reads.
        if (hotPoolSectors_ == 0 && hotReadOps_ > 0) {
            randomReadOps_ += hotReadOps_;
            hotReadOps_ = 0;
        }

        // Run area: each mis-ordered op and each shuffled op writes
        // one io of fresh space.
        runAreaStart_ = hotPoolStart_ + hotPoolSectors_;
        const SectorCount run_area =
            (misorderOps_ + shuffleOps_) * runIo_ + runIo_;

        seqAreaStart_ = runAreaStart_ + run_area;
        const SectorCount seq_area = seqOps_ * writeIo_ + writeIo_;

        randomAreaStart_ = seqAreaStart_ + seq_area;
        randomAreaSectors_ = mibToSectors(256);
        if (randomAreaSectors_ < writeIo_ * 4)
            randomAreaSectors_ = writeIo_ * 4;

        spaceEnd_ = randomAreaStart_ + randomAreaSectors_;
        runCursor_ = runAreaStart_;
        seqCursor_ = seqAreaStart_;
    }

    SectorExtent
    scanRegion(int day) const
    {
        const std::uint64_t slot =
            spec_.scanFresh ? static_cast<std::uint64_t>(day) : 0;
        return SectorExtent{scanAreaStart_ +
                                slot * scanRegionSectors_,
                            scanRegionSectors_};
    }

    void
    noteWrite(Lba lba, SectorCount count)
    {
        recentWrites_.push_back(SectorExtent{lba, count});
        if (recentWrites_.size() > 1024)
            recentWrites_.pop_front();
    }

    void
    recordRun(const SectorExtent &run)
    {
        runs_.push_back(run);
        if (runs_.size() > 256)
            runs_.pop_front();
    }

    /** Day-0 construction of long-lived fragmented state. */
    void
    prepare()
    {
        if (hotPoolSectors_ > 0) {
            // Interleaved passes: pass p writes piece p of every
            // chunk, so each chunk ends up as four fragments spaced
            // a quarter pool apart in the log.
            const std::uint64_t chunks =
                hotPoolSectors_ / hotChunk_;
            const std::uint64_t pieces = hotChunk_ / hotSubIo_;
            for (std::uint64_t p = 0; p < pieces; ++p) {
                for (std::uint64_t c = 0; c < chunks; ++c) {
                    const Lba lba = hotPoolStart_ + c * hotChunk_ +
                                    p * hotSubIo_;
                    const SectorCount n = std::min<SectorCount>(
                        hotSubIo_,
                        hotPoolStart_ + (c + 1) * hotChunk_ - lba);
                    builder_.write(lba, n);
                }
            }
            hotReader_.emplace(SectorExtent{hotPoolStart_,
                                            hotPoolSectors_},
                               hotChunk_, spec_.hotSkew, rng_);
        }

        if (spec_.prepShuffleScan && scanRegionSectors_ > 0) {
            shuffledSequentialWrite(builder_, rng_, scanRegion(0),
                                    runIo_, spec_.shuffleWindowIos,
                                    spec_.prepShuffleFrac);
        }
        if (spec_.diskGiB > 0) {
            const Lba last =
                bytesToSectors(spec_.diskGiB * kGiB) - 1;
            if (last >= spaceEnd_)
                builder_.read(last, 1);
        }
        builder_.idle(30ULL * 60 * 1000 * 1000);
    }

    void
    runDay(int day, int days)
    {
        const auto day_u = static_cast<std::uint64_t>(day);
        const auto days_u = static_cast<std::uint64_t>(days);
        auto slice = [&](std::uint64_t total) {
            return total / days_u +
                   (day_u < total % days_u ? 1 : 0);
        };
        constexpr int kRounds = 4;
        const SectorExtent region = scanRegion(day);

        for (int round = 0; round < kRounds; ++round) {
            auto piece = [&](std::uint64_t day_total) {
                const std::uint64_t base = day_total / kRounds;
                return base + (round == kRounds - 1
                                   ? day_total % kRounds
                                   : 0);
            };

            // Interleave the write categories in small batches so
            // one category's requests do not form an artificial
            // contiguous block in the log (real volumes mix their
            // write streams); likewise for reads.
            std::vector<Batch> writes{
                {[&](std::uint64_t n) { emitUpdates(region, n); },
                 piece(slice(updateOps_))},
                {[&](std::uint64_t n) { emitMisordered(n); },
                 piece(slice(misorderOps_))},
                {[&](std::uint64_t n) { emitShuffled(n); },
                 piece(slice(shuffleOps_))},
                {[&](std::uint64_t n) {
                     emitSequentialStreams(n);
                 },
                 piece(slice(seqOps_))},
                {[&](std::uint64_t n) { emitRandomWrites(n); },
                 piece(slice(randomWriteOps_))},
            };
            emitInterleaved(writes);

            std::vector<Batch> reads{
                {[&](std::uint64_t n) { emitTemporalReads(n); },
                 piece(slice(temporalReadOps_))},
                {[&](std::uint64_t n) {
                     emitScanReads(region, n);
                 },
                 piece(slice(scanReadOps_))},
                {[&](std::uint64_t n) { emitHotReads(n); },
                 piece(slice(hotReadOps_))},
                {[&](std::uint64_t n) { emitRunReads(n); },
                 piece(slice(runReadOps_))},
                {[&](std::uint64_t n) { emitRandomReads(n); },
                 piece(slice(randomReadOps_))},
            };
            emitInterleaved(reads);

            builder_.idle(5ULL * 60 * 1000 * 1000);
        }
    }

    /** One interleavable emission category and its op budget. */
    struct Batch
    {
        std::function<void(std::uint64_t)> emit;
        std::uint64_t remaining;
    };

    /**
     * Drain the categories in randomly ordered batches of at most
     * kBatchOps requests each, weighting the choice by remaining
     * budget so categories finish together.
     */
    void
    emitInterleaved(std::vector<Batch> &batches)
    {
        constexpr std::uint64_t kBatchOps = 48;
        while (true) {
            std::uint64_t total = 0;
            for (const auto &batch : batches)
                total += batch.remaining;
            if (total == 0)
                break;
            std::uint64_t pick = rng_.nextUint(total);
            for (auto &batch : batches) {
                if (pick >= batch.remaining) {
                    pick -= batch.remaining;
                    continue;
                }
                const std::uint64_t n =
                    std::min(kBatchOps, batch.remaining);
                batch.emit(n);
                batch.remaining -= n;
                break;
            }
        }
    }

    void
    emitUpdates(const SectorExtent &region, std::uint64_t count)
    {
        if (count == 0 || region.count < updateIo_)
            return;
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint64_t slots = region.count / updateIo_;
            const Lba lba =
                region.start + rng_.nextUint(slots) * updateIo_;
            builder_.write(lba, updateIo_);
            noteWrite(lba, updateIo_);
        }
    }

    void
    emitMisordered(std::uint64_t count)
    {
        while (count > 0) {
            const std::uint64_t ios =
                std::min<std::uint64_t>(spec_.runIos, count);
            if (ios < 2)
                break;
            const SectorExtent run{runCursor_, ios * runIo_};
            runCursor_ += run.count;
            misorderedWrite(builder_, run, runIo_,
                            spec_.misPattern);
            recordRun(run);
            noteWrite(run.start, run.count);
            count -= ios;
        }
    }

    void
    emitShuffled(std::uint64_t count)
    {
        while (count > 0) {
            const std::uint64_t ios = std::min<std::uint64_t>(
                spec_.shuffleWindowIos * 4, count);
            if (ios < 2)
                break;
            const SectorExtent area{runCursor_, ios * runIo_};
            runCursor_ += area.count;
            shuffledSequentialWrite(builder_, rng_, area, runIo_,
                                    spec_.shuffleWindowIos);
            recordRun(area);
            noteWrite(area.start, area.count);
            count -= ios;
        }
    }

    void
    emitSequentialStreams(std::uint64_t count)
    {
        if (count == 0)
            return;
        const SectorExtent area{seqCursor_, count * writeIo_};
        seqCursor_ += area.count;
        const std::uint32_t streams =
            std::max<std::uint32_t>(1, spec_.seqStreams);
        if (streams == 1 || area.count < streams) {
            sequentialWrite(builder_, area, writeIo_);
        } else {
            interleavedStreamWrite(builder_, area, streams,
                                   writeIo_);
        }
        noteWrite(area.start, area.count);
    }

    void
    emitRandomWrites(std::uint64_t count)
    {
        if (count == 0)
            return;
        const SectorExtent area{randomAreaStart_,
                                randomAreaSectors_};
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint64_t slots = area.count / writeIo_;
            const Lba lba =
                area.start + rng_.nextUint(slots) * writeIo_;
            builder_.write(lba, writeIo_);
            noteWrite(lba, writeIo_);
        }
    }

    void
    emitTemporalReads(std::uint64_t count)
    {
        if (count == 0 || recentWrites_.empty())
            return;
        const std::size_t n = std::min<std::size_t>(
            count, recentWrites_.size());
        const std::size_t first = recentWrites_.size() - n;
        for (std::size_t i = first; i < recentWrites_.size(); ++i)
            builder_.read(recentWrites_[i].start,
                          recentWrites_[i].count);
    }

    void
    emitScanReads(const SectorExtent &region, std::uint64_t count)
    {
        if (count == 0 || region.count == 0)
            return;
        for (std::uint64_t i = 0; i < count; ++i) {
            if (scanCursor_ < region.start ||
                scanCursor_ >= region.end())
                scanCursor_ = region.start;
            const SectorCount n = std::min<SectorCount>(
                readIo_, region.end() - scanCursor_);
            builder_.read(scanCursor_, n);
            scanCursor_ += n;
        }
    }

    void
    emitHotReads(std::uint64_t count)
    {
        if (count == 0 || !hotReader_)
            return;
        if (!spec_.hotUnaligned) {
            hotReader_->emit(builder_, rng_, count);
            return;
        }
        const SectorExtent pool{hotPoolStart_, hotPoolSectors_};
        if (pool.count <= readIo_)
            return;
        for (std::uint64_t i = 0; i < count; ++i) {
            const Lba lba = pool.start +
                            rng_.nextUint(pool.count - readIo_);
            builder_.read(lba, readIo_);
        }
    }

    void
    emitRunReads(std::uint64_t count)
    {
        if (runs_.empty())
            return;
        while (count > 0) {
            const SectorExtent &run =
                runs_[rng_.nextUint(runs_.size())];
            Lba lba = run.start;
            while (lba < run.end() && count > 0) {
                const SectorCount n =
                    std::min<SectorCount>(readIo_, run.end() - lba);
                builder_.read(lba, n);
                lba += n;
                --count;
            }
        }
    }

    void
    emitRandomReads(std::uint64_t count)
    {
        if (count == 0)
            return;
        const SectorExtent space{0, spaceEnd_};
        if (space.count < readIo_)
            return;
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint64_t slots = space.count / readIo_;
            builder_.read(rng_.nextUint(slots) * readIo_, readIo_);
        }
    }

    const Spec &spec_;
    Rng rng_;
    TraceBuilder builder_;

    std::uint64_t totalReads_ = 0;
    std::uint64_t totalWrites_ = 0;
    SectorCount writeIo_ = 0;
    SectorCount readIo_ = 0;
    SectorCount updateIo_ = 0;
    SectorCount runIo_ = 0;

    // Layout.
    Lba scanAreaStart_ = 0;
    SectorCount scanRegionSectors_ = 0;
    Lba hotPoolStart_ = 0;
    SectorCount hotPoolSectors_ = 0;
    SectorCount hotChunk_ = 0;
    SectorCount hotSubIo_ = 0;
    Lba runAreaStart_ = 0;
    Lba seqAreaStart_ = 0;
    Lba randomAreaStart_ = 0;
    SectorCount randomAreaSectors_ = 0;
    Lba spaceEnd_ = 0;

    // Budgets.
    std::uint64_t hotPrepOps_ = 0;
    std::uint64_t shufflePrepOps_ = 0;
    std::uint64_t updateOps_ = 0;
    std::uint64_t misorderOps_ = 0;
    std::uint64_t shuffleOps_ = 0;
    std::uint64_t seqOps_ = 0;
    std::uint64_t randomWriteOps_ = 0;
    std::uint64_t scanReadOps_ = 0;
    std::uint64_t hotReadOps_ = 0;
    std::uint64_t runReadOps_ = 0;
    std::uint64_t temporalReadOps_ = 0;
    std::uint64_t randomReadOps_ = 0;

    // Cursors and recent-activity state.
    Lba runCursor_ = 0;
    Lba seqCursor_ = 0;
    Lba scanCursor_ = 0;
    std::deque<SectorExtent> runs_;
    std::deque<SectorExtent> recentWrites_;
    std::optional<HotSpotReader> hotReader_;
};

} // namespace

const std::vector<WorkloadInfo> &
workloadTable()
{
    static const std::vector<WorkloadInfo> table = [] {
        std::vector<WorkloadInfo> out;
        out.reserve(kSpecCount);
        for (const Spec &spec : kSpecs) {
            out.push_back(WorkloadInfo{spec.name, spec.suite,
                                       spec.os, spec.reads,
                                       spec.writes,
                                       spec.meanWriteKiB,
                                       spec.behavior});
        }
        return out;
    }();
    return table;
}

namespace
{

std::vector<std::string>
namesBySuite(const char *suite)
{
    std::vector<std::string> names;
    for (const auto &info : workloadTable()) {
        if (suite == nullptr || info.suite == suite)
            names.push_back(info.name);
    }
    return names;
}

} // namespace

std::vector<std::string>
msrWorkloadNames()
{
    return namesBySuite("MSR");
}

std::vector<std::string>
cloudPhysicsWorkloadNames()
{
    return namesBySuite("CloudPhysics");
}

std::vector<std::string>
allWorkloadNames()
{
    return namesBySuite(nullptr);
}

bool
isKnownWorkload(const std::string &name)
{
    return findSpec(name) != nullptr;
}

const WorkloadInfo &
workloadInfo(const std::string &name)
{
    for (const auto &info : workloadTable()) {
        if (info.name == name)
            return info;
    }
    fatal("unknown workload: " + name);
}

trace::Trace
makeWorkload(const std::string &name, const ProfileOptions &options)
{
    const Spec *spec = findSpec(name);
    if (spec == nullptr)
        fatal("unknown workload: " + name);
    ProfileEngine engine(*spec, options);
    return engine.build();
}

} // namespace logseek::workloads
