/**
 * @file
 * Umbrella header: pulls in the whole public logseek API.
 *
 * Fine-grained headers remain the preferred includes for library
 * consumers that care about compile time; this header is for
 * examples, quick experiments and downstream prototypes.
 */

#ifndef LOGSEEK_LOGSEEK_H
#define LOGSEEK_LOGSEEK_H

#include "analysis/misordered.h"
#include "analysis/observers.h"
#include "analysis/report.h"
#include "analysis/validating_observer.h"
#include "disk/head.h"
#include "disk/pba_cache.h"
#include "disk/seek_time.h"
#include "stl/conventional.h"
#include "stl/defrag.h"
#include "stl/extent_map.h"
#include "stl/finite_log.h"
#include "stl/log_structured.h"
#include "stl/media_cache.h"
#include "stl/prefetch.h"
#include "stl/replay_engine.h"
#include "stl/selective_cache.h"
#include "stl/simulator.h"
#include "stl/translation_layer.h"
#include "sweep/cli.h"
#include "sweep/report.h"
#include "sweep/sweep_runner.h"
#include "sweep/task_pool.h"
#include "trace/msr_csv.h"
#include "trace/record.h"
#include "trace/reorder.h"
#include "trace/stats.h"
#include "trace/trace.h"
#include "util/extent.h"
#include "util/fault.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/status.h"
#include "util/time_series.h"
#include "util/units.h"
#include "workloads/builder.h"
#include "workloads/phases.h"
#include "workloads/profiles.h"

#endif // LOGSEEK_LOGSEEK_H
