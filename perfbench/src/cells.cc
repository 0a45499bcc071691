/**
 * @file
 * The workload table, set-up, and one timed pass over a workload's
 * cells through SweepRunner.
 */

#include <algorithm>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>

#include "analysis/validating_observer.h"
#include "bench.h"
#include "stl/extent_map.h"
#include "sweep/sweep_runner.h"
#include "trace/lskc.h"
#include "util/logging.h"
#include "util/units.h"
#include "workloads/profiles.h"

namespace perfbench
{

namespace
{

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

bool
usesFiniteLog(const WorkloadDef &def)
{
    return std::any_of(def.configs.begin(), def.configs.end(),
                       [](Cfg cfg) {
                           return cfg == Cfg::FlGreedy ||
                                  cfg == Cfg::FlCb2Zoned;
                       });
}

/** Unique sectors the records' writes touch: their live footprint. */
template <class Records>
std::uint64_t
footprintSectors(const Records &records)
{
    stl::ExtentMap map;
    for (const auto &record : records)
        if (record.isWrite())
            map.mapRange(record.extent.start, record.extent.start,
                         record.extent.count);
    return map.mappedSectors();
}

template <class Records>
stl::FiniteLogConfig
sizedFiniteLogOf(const Records &records)
{
    const std::uint64_t footprint =
        sectorsToBytes(footprintSectors(records));
    const std::uint64_t raw = std::max<std::uint64_t>(
        8 * kMiB, footprint * 100 / kFiniteLogUtilPct);
    stl::FiniteLogConfig config;
    config.segmentBytes =
        std::clamp<std::uint64_t>(raw / 128, 64 * kKiB, 4 * kMiB);
    config.segmentBytes -= config.segmentBytes % (64 * kKiB);
    config.capacityBytes = (raw + config.segmentBytes - 1) /
                           config.segmentBytes * config.segmentBytes;
    config.cleanReserveSegments = 2;
    config.cleanTargetSegments = 4;
    return config;
}

/** FNV-1a over raw bytes. */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    template <class T>
    void
    value(const T &v)
    {
        bytes(&v, sizeof v);
    }

    void
    text(const std::string &s)
    {
        value(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t hash() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

} // namespace

stl::FiniteLogConfig
sizedFiniteLog(const trace::Trace &trace)
{
    return sizedFiniteLogOf(trace);
}

stl::FiniteLogConfig
sizedFiniteLog(const std::vector<trace::IoRecord> &records)
{
    return sizedFiniteLogOf(records);
}

namespace
{

std::uint64_t
threadTag()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           100000;
}

/** Stamps nowSec() after every kWindowEvents-th request of a replay. */
class WindowClock final : public stl::SimObserver
{
  public:
    explicit WindowClock(std::vector<double> &stamps) : stamps_(stamps)
    {
        stamps_.clear();
    }

    void
    onEvent(const stl::IoEvent &) override
    {
        if (++events_ % kWindowEvents == 0)
            stamps_.push_back(nowSec());
    }

  private:
    std::vector<double> &stamps_;
    std::uint64_t events_ = 0;
};

/** Cut `run_sec` at `stamps` into CellRun::windowSec's parts. */
std::vector<double>
windowsOf(double run_sec, const std::vector<double> &stamps)
{
    if (stamps.empty())
        return {run_sec};
    std::vector<double> out{run_sec - (stamps.back() - stamps.front())};
    for (std::size_t k = 1; k < stamps.size(); ++k)
        out.push_back(stamps[k] - stamps[k - 1]);
    return out;
}

} // namespace

const char *
cfgName(Cfg cfg)
{
    switch (cfg) {
    case Cfg::Nols:
        return "nols";
    case Cfg::Ls:
        return "ls";
    case Cfg::LsDefrag:
        return "ls_defrag";
    case Cfg::LsPrefetch:
        return "ls_prefetch";
    case Cfg::LsCache:
        return "ls_cache";
    case Cfg::LsAll:
        return "ls_all";
    case Cfg::FlGreedy:
        return "fl_greedy";
    case Cfg::FlCb2Zoned:
        return "fl_cb2_zoned";
    }
    return "?";
}

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs{
        {"fig11",
         workloads::allWorkloadNames(),
         {Cfg::Nols, Cfg::Ls, Cfg::LsDefrag, Cfg::LsPrefetch,
          Cfg::LsCache, Cfg::LsAll},
         /*parallel=*/true,
         /*lskc=*/false},
        {"hot-reread",
         {"usr_1", "w33", "w20"},
         {Cfg::Ls, Cfg::LsPrefetch, Cfg::LsCache, Cfg::LsAll},
         /*parallel=*/false,
         /*lskc=*/false},
        {"write-churn",
         {"w36", "w76", "w33"},
         {Cfg::Ls, Cfg::FlGreedy, Cfg::FlCb2Zoned},
         /*parallel=*/false,
         /*lskc=*/true},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const auto &def : workloadDefs())
        if (def.name == name)
            return &def;
    return nullptr;
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

StatusOr<Prepared>
prepare(const WorkloadDef &def, std::uint64_t seed,
        const std::string &dir)
{
    Prepared out;
    out.def = &def;
    out.jobs = def.parallel
                   ? static_cast<int>(std::max(
                         1u, std::thread::hardware_concurrency()))
                   : 1;

    workloads::ProfileOptions options;
    options.scale = kScale;
    options.seed = seed;
    for (const auto &name : def.profiles) {
        Profile profile;
        profile.name = name;
        const double gen_start = nowSec();
        trace::Trace trace = workloads::makeWorkload(name, options);
        profile.genSec = nowSec() - gen_start;
        profile.records = trace.size();
        if (usesFiniteLog(def))
            profile.finiteLog = sizedFiniteLog(trace);
        if (def.lskc) {
            const std::string path = dir + "/" + name + ".lskc";
            const Status written = trace::tryWriteLskcFile(path, trace);
            if (!written.ok())
                return written;
            auto source = trace::LskcSource::tryOpen(path);
            if (!source.ok())
                return source.status();
            profile.source = std::move(source).value();
        } else {
            profile.source =
                std::make_shared<const trace::InMemoryTraceSource>(
                    std::move(trace));
        }
        out.profiles.push_back(std::move(profile));
    }
    return out;
}

stl::SimConfig
makeConfig(Cfg cfg, const Profile &profile)
{
    stl::SimConfig config;
    config.translation = stl::TranslationKind::LogStructured;
    const bool defrag = cfg == Cfg::LsDefrag || cfg == Cfg::LsAll;
    const bool prefetch = cfg == Cfg::LsPrefetch || cfg == Cfg::LsAll;
    const bool cache = cfg == Cfg::LsCache || cfg == Cfg::LsAll;
    if (defrag)
        config.defrag = stl::DefragConfig{};
    if (prefetch)
        config.prefetch = stl::PrefetchConfig{};
    if (cache)
        config.cache = stl::SelectiveCacheConfig{64 * kMiB};
    switch (cfg) {
    case Cfg::Nols:
        config.translation = stl::TranslationKind::Conventional;
        break;
    case Cfg::FlGreedy:
        config.translation = stl::TranslationKind::FiniteLogStructured;
        config.finiteLog = profile.finiteLog;
        config.finiteLog.gc.policy = stl::gc::CleaningPolicyKind::Greedy;
        config.finiteLog.gc.streams = 1;
        break;
    case Cfg::FlCb2Zoned:
        config.translation = stl::TranslationKind::FiniteLogStructured;
        config.finiteLog = profile.finiteLog;
        config.finiteLog.gc.policy =
            stl::gc::CleaningPolicyKind::CostBenefit;
        config.finiteLog.gc.streams = 2;
        config.zonedDevice = disk::ZonedDeviceOptions{};
        break;
    default:
        break;
    }
    return config;
}

PassResult
runPass(const Prepared &prepared, const PassHooks &hooks)
{
    const WorkloadDef &def = *prepared.def;
    const std::size_t n_profiles = prepared.profiles.size();
    const std::size_t n_configs = def.configs.size();

    // Per-cell span and window slots: each is written by exactly one
    // worker and read after run() has joined the pool.
    std::vector<double> cell_start(n_profiles * n_configs, 0.0);
    std::vector<double> cell_end(n_profiles * n_configs, 0.0);
    std::vector<std::uint64_t> cell_tid(n_profiles * n_configs, 0);
    std::vector<std::vector<double>> cell_stamps(n_profiles * n_configs);
    const bool spans = hooks.spans != nullptr;

    // The traces were generated during set-up; a pass shares them.
    std::vector<sweep::WorkloadSpec> workload_specs;
    for (const Profile &profile : prepared.profiles)
        workload_specs.push_back(sweep::WorkloadSpec::source(
            profile.name, [source = profile.source] { return source; }));

    std::vector<sweep::ConfigSpec> config_specs;
    for (const Cfg cfg : def.configs)
        config_specs.push_back(sweep::ConfigSpec::deferredSource(
            cfgName(cfg),
            [cfg, &prepared](const trace::TraceSource &source) {
                for (const auto &profile : prepared.profiles)
                    if (profile.source.get() == &source)
                        return makeConfig(cfg, profile);
                throw FatalError("perfbench: unknown source '" +
                                 source.name() + "'");
            }));

    sweep::SweepOptions options;
    options.jobs = prepared.jobs;
    options.observerFactory = [&hooks, spans, n_configs, &cell_start,
                               &cell_tid,
                               &cell_stamps](const sweep::RunKey &key) {
        const std::size_t slot =
            key.workloadIndex * n_configs + key.configIndex;
        std::vector<std::unique_ptr<stl::SimObserver>> observers;
        observers.push_back(
            std::make_unique<WindowClock>(cell_stamps[slot]));
        if (spans) {
            cell_start[slot] = nowSec();
            cell_tid[slot] = threadTag();
        }
        if (hooks.validate)
            observers.push_back(
                std::make_unique<analysis::ValidatingObserver>(
                    analysis::ValidatingObserver::Options{
                        .paranoid = true, .maxRecorded = 16}));
        return observers;
    };
    if (spans)
        options.onCellComplete = [n_configs,
                                  &cell_end](const sweep::RunRow &row) {
            cell_end[row.key.workloadIndex * n_configs +
                     row.key.configIndex] = nowSec();
        };

    const double start = nowSec();
    sweep::SweepRunner runner(std::move(workload_specs),
                              std::move(config_specs), std::move(options));
    sweep::SweepResult sweep = runner.run();
    PassResult out;
    out.wallSec = nowSec() - start;

    for (std::size_t p = 0; p < n_profiles; ++p) {
        for (std::size_t c = 0; c < n_configs; ++c) {
            sweep::RunRow &row = sweep.rows[p * n_configs + c];
            CellRun cell;
            cell.profile = p;
            cell.cfg = def.configs[c];
            cell.status = row.status;
            cell.runSec = row.wallSec;
            cell.records = prepared.profiles[p].records;
            cell.windowSec =
                windowsOf(row.wallSec, cell_stamps[p * n_configs + c]);
            if (row.status.ok())
                cell.result = std::move(row.result);
            out.cells.push_back(std::move(cell));
        }
    }

    if (spans) {
        for (std::size_t p = 0; p < n_profiles; ++p) {
            for (std::size_t c = 0; c < n_configs; ++c) {
                const std::size_t slot = p * n_configs + c;
                hooks.spans->add(
                    {"cell:" + prepared.profiles[p].name + "/" +
                         cfgName(def.configs[c]),
                     "cell", cell_start[slot], cell_end[slot],
                     hooks.spans->newId(), hooks.parent,
                     cell_tid[slot]});
            }
        }
    }
    return out;
}

std::string
digest(const stl::SimResult &r)
{
    Fnv h;
    h.text(r.workload);
    h.text(r.configLabel);
    for (const std::uint64_t v :
         {r.reads, r.writes, r.readSeeks, r.writeSeeks,
          r.fragmentedReads, r.readFragments, r.cacheHits,
          r.cacheMisses, r.prefetchHits, r.defragRewrites,
          r.defragBytes, r.mediaReadBytes, r.mediaWriteBytes,
          r.hostWriteBytes, r.cleaningReadBytes, r.cleaningWriteBytes,
          r.cleaningSeeks, r.cleaningMerges,
          static_cast<std::uint64_t>(r.staticFragments),
          r.deviceReadRetries, r.deviceRecoveredSectors,
          r.deviceFailedReadSectors, r.deviceDegradedReads,
          r.deviceFailedWriteSectors, r.deviceZoneResets,
          r.deviceWpViolations, r.deviceOutOfPolicyWrites,
          r.deviceGrownDefects, r.deviceReadOnlyZones,
          r.deviceOfflineZones, r.deviceErrorLogDropped,
          r.gcVictimLiveBytes, r.gcVictimSpanBytes})
        h.value(v);
    std::uint64_t seek_bits = 0;
    static_assert(sizeof seek_bits == sizeof r.seekTimeSec);
    std::memcpy(&seek_bits, &r.seekTimeSec, sizeof seek_bits);
    h.value(seek_bits);

    static const char *kHex = "0123456789abcdef";
    std::string out(16, '0');
    std::uint64_t v = h.hash();
    for (int i = 15; i >= 0; --i, v >>= 4)
        out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
    return out;
}

std::string
cellKey(const Prepared &prepared, const CellRun &cell)
{
    return prepared.profiles[cell.profile].name + "/" +
           cfgName(cell.cfg);
}

} // namespace perfbench
