#!/usr/bin/env bash
#
# Tier-1 gate: configure, build and test the presets that guard the
# repo's correctness story.
#
#   default  RelWithDebInfo, the full suite
#   asan     ASan+UBSan, the full suite
#   tsan     ThreadSanitizer, the concurrency suites
#            (TaskPool*/SweepRunner*/Telemetry*/IngestReplay* and
#            the rest of the preset's filter — the sweep runner,
#            its single-queue task pool, the zoned-device and
#            crash-recovery grids and the telemetry registry)
#
# The extra mode `bench-smoke` builds the default preset's
# perf_extent_map / perf_simulator benchmarks and runs them at
# reduced iterations, writing BENCH_extent_map.smoke.json. It fails
# when the map or translate speedup over the preserved std::map
# reference is below 1.0 at the largest level (CI uploads the file
# as an artifact; the checked-in BENCH_extent_map.json is
# regenerated manually at full iterations). The smoke artifact
# records the box's nproc so a ~1x parallel speedup on a 1-CPU
# runner is not misread as a regression, and a jobs-smoke leg
# replays the Figure 11 sweep at --jobs 1, 2 and 4, diffing the
# --jobs 2 and --jobs 4 reports against --jobs 1 with their timing
# fields stripped — byte-identical cell-parallel sweeps checked
# end-to-end through the real CLI.
#
# The extra mode `fault-smoke` builds device_fault_sweep under the
# asan preset and runs the fault matrix at small scale with an
# elevated fault rate, writing BENCH_device_faults.smoke.json — so
# the zoned-device recovery paths (retries, degraded reads, zones
# going read-only or offline, write-pointer recovery) execute under
# ASan+UBSan on every push. Device faults are absorbed as counted
# partial failures, so any row with "ok": false fails the gate, and
# so does a report without the device counters (no
# "deviceReadRetries" column). The matrix then runs again at
# --jobs 1, and its report, timing fields stripped as in jobs-smoke,
# must be byte-identical to the --jobs 2 one, device counters
# included.
#
# The extra mode `crash-smoke` builds crash_recovery_bench under
# the asan preset and runs the reduced crash matrix (power-loss
# injection, log-scan remount, fsck, oracle equivalence), writing
# BENCH_crash_recovery.smoke.json, then runs the CrashRecovery
# differential suite — so every recovery path executes under
# ASan+UBSan on every push.
#
# The extra mode `gc-smoke` builds gc_ablation under the default
# preset and runs the cleaning-policy × stream-count × utilization
# grid at small scale, writing BENCH_gc_ablation.smoke.json, then
# reruns it with --jobs 2 and diffs the two reports — the grid has
# no timing fields, so the diff proves every GC cell is
# byte-identical across sweep parallelism. It then runs the full-scale
# grid (504 cells) and cmps it against the checked-in
# BENCH_gc_ablation.json, so a change to placement or cleaning that
# moves any cell fails the gate.
#
# The extra mode `ingest-smoke` builds perf_ingest and
# trace_convert under the default preset, converts a sample MSR CSV
# to LSKC and byte-diffs a reconversion (cmp — the converter must
# be deterministic), then runs the reduced ingestion benchmark,
# writing BENCH_ingest.smoke.json. perf_ingest exits non-zero when
# the LSKC mmap-open >= 10x CSV-parse contract, the zero-copy
# replay byte-identity, the streaming-generator flat-RSS assert or
# its materialized positive control fails, so all of them gate CI
# (the checked-in BENCH_ingest.json is regenerated manually at full
# iterations).
#
# The extra mode `perfbench-smoke` runs the benchmark for one second
# on each of its three workloads (fig11, hot-reread, write-churn)
# through python3 perfbench/run.py, which builds perfbench (Release)
# into .bench_build. Each run replays every cell under the invariant
# checker and compares its SimResult digest with the one recorded in
# perfbench/digests.txt; run.py exits 1 when any cell fails or
# differs, and that fails the gate. It then runs all three again at
# seed 7, which has no recorded digests: every pass must still
# reproduce the digests of its own validation pass, which catches
# state that depends on anything but the replayed input. Last, one
# traced run of each workload (--trace 1) replays the cells with
# telemetry armed: those passes must reproduce the recorded digests
# too, and every standalone cross-check of their per-layer ledgers
# must match. fig11's 525 cross-checks drive the selective cache and
# the prefetch buffer in perfbench's own order (look up, admit on a
# miss) for all 21 profiles and compare their hit and miss counts
# with the replay's. write-churn's finite logs clean and one runs on
# the zoned device, so its cross-checks cover cleaning seeks, merges,
# victim bytes and the device's counts.
#
# Usage:
#   scripts/tier1.sh            # all three presets
#   scripts/tier1.sh default    # just one
#   scripts/tier1.sh bench-smoke
#   scripts/tier1.sh fault-smoke
#   scripts/tier1.sh crash-smoke
#   scripts/tier1.sh gc-smoke
#   scripts/tier1.sh ingest-smoke
#   scripts/tier1.sh perfbench-smoke
#   JOBS=8 scripts/tier1.sh     # override the build parallelism

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
PRESETS=("$@")
if [ "${#PRESETS[@]}" -eq 0 ]; then
    PRESETS=(default asan tsan)
fi

# A sweep report without the fields that vary from run to run (the
# telemetry block and each row's wallSec / opsPerSec).
strip_timing() {
    sed -e '/"telemetry":/d' \
        -e 's/, "wallSec": [^,}]*, "opsPerSec": [^}]*//' "$1"
}

run_bench_smoke() {
    echo "==> tier1: bench-smoke"
    cmake --preset default
    cmake --build --preset default -j "${JOBS}" \
        --target perf_extent_map perf_simulator
    build/bench/perf_extent_map \
        --json=BENCH_extent_map.smoke.json --translate-iters=50000
    # Only the largest level (about 172k entries) is gated: the
    # smaller ones run too briefly to compare reliably.
    python3 - BENCH_extent_map.smoke.json <<'EOF'
import json
import sys

levels = json.load(open(sys.argv[1]))["extent_map"]["levels"]
largest = max(levels, key=lambda level: level["entries"])
slow = [key for key in ("mapSpeedup", "translateSpeedup")
        if largest[key] < 1.0]
for key in slow:
    print("==> tier1: bench-smoke %s %.2f < 1.0 at %d entries"
          % (key, largest[key], largest["entries"]), file=sys.stderr)
sys.exit(1 if slow else 0)
EOF
    build/bench/perf_simulator \
        --json=BENCH_extent_map.smoke.json --ops=20000 --reps=1
    echo "{\"nproc\": $(nproc 2>/dev/null || echo 1)}" \
        > BENCH_nproc.smoke.json

    # Jobs-smoke: the sweep CLI end-to-end, --jobs 1 vs --jobs 2
    # and --jobs 4. Timing fields are the only permitted
    # difference; everything else must be byte-identical.
    cmake --build --preset default -j "${JOBS}" --target fig11_saf
    build/bench/fig11_saf 0.002 --jobs 1 \
        --json=/tmp/tier1_jobs1.json > /dev/null
    for jobs in 2 4; do
        build/bench/fig11_saf 0.002 --jobs "${jobs}" \
            --json="/tmp/tier1_jobs${jobs}.json" > /dev/null
        diff <(strip_timing /tmp/tier1_jobs1.json) \
             <(strip_timing "/tmp/tier1_jobs${jobs}.json")
    done
    echo "==> tier1: jobs-smoke byte-identical at --jobs 1, 2 and 4"
}

run_fault_smoke() {
    echo "==> tier1: fault-smoke"
    cmake --preset asan
    cmake --build --preset asan -j "${JOBS}" \
        --target device_fault_sweep
    build-asan/bench/device_fault_sweep 0.002 \
        --fault-rate=0.01 --jobs=2 \
        --json=BENCH_device_faults.smoke.json
    if grep '"ok": false' BENCH_device_faults.smoke.json; then
        echo "==> tier1: fault-smoke has failed cells" >&2
        exit 1
    fi
    if ! grep -q '"deviceReadRetries"' BENCH_device_faults.smoke.json
    then
        echo "==> tier1: fault-smoke report has no device counters" >&2
        exit 1
    fi
    echo "==> tier1: fault-smoke every cell ok"
    build-asan/bench/device_fault_sweep 0.002 \
        --fault-rate=0.01 --jobs=1 \
        --json=/tmp/tier1_faults_jobs1.json > /dev/null
    diff <(strip_timing /tmp/tier1_faults_jobs1.json) \
         <(strip_timing BENCH_device_faults.smoke.json)
    echo "==> tier1: fault-smoke byte-identical at --jobs 1 and 2"
}

run_crash_smoke() {
    echo "==> tier1: crash-smoke"
    cmake --preset asan
    cmake --build --preset asan -j "${JOBS}" \
        --target crash_recovery_bench stl_tests
    build-asan/bench/crash_recovery_bench \
        --json=BENCH_crash_recovery.smoke.json
    ctest --test-dir build-asan -R "CrashRecovery" \
        --output-on-failure -j "${JOBS}"
}

run_gc_smoke() {
    echo "==> tier1: gc-smoke"
    cmake --preset default
    cmake --build --preset default -j "${JOBS}" --target gc_ablation
    build/bench/gc_ablation 0.002 --jobs 1 \
        --json=BENCH_gc_ablation.smoke.json > /dev/null
    build/bench/gc_ablation 0.002 --jobs 2 \
        --json=/tmp/tier1_gc_jobs2.json > /dev/null
    diff BENCH_gc_ablation.smoke.json /tmp/tier1_gc_jobs2.json
    echo "==> tier1: gc-smoke byte-identical across --jobs"
    build/bench/gc_ablation --jobs "${JOBS}" \
        --json=/tmp/tier1_gc_full.json > /dev/null
    cmp /tmp/tier1_gc_full.json BENCH_gc_ablation.json
    echo "==> tier1: gc-smoke full grid matches BENCH_gc_ablation.json"
}

run_ingest_smoke() {
    echo "==> tier1: ingest-smoke"
    cmake --preset default
    cmake --build --preset default -j "${JOBS}" \
        --target perf_ingest trace_convert
    # Conversion determinism: CSV -> LSKC, then LSKC -> LSKC again;
    # the canonicalizing reconversion must be byte-identical.
    sample=/tmp/tier1_ingest_sample.csv
    printf '%s\n' \
        '128166372003640000,hm,0,Read,328452096,8192,1547' \
        '128166372004137000,hm,0,Write,2216429568,4096,388' \
        '128166372016260000,hm,0,Read,328497152,16384,723' \
        > "${sample}"
    build/bench/trace_convert "${sample}" \
        --convert-out /tmp/tier1_ingest.lskc
    build/bench/trace_convert /tmp/tier1_ingest.lskc \
        --convert-out /tmp/tier1_ingest2.lskc --out-format lskc
    cmp /tmp/tier1_ingest.lskc /tmp/tier1_ingest2.lskc
    echo "==> tier1: ingest-smoke conversion byte-identical"
    # The benchmark asserts its own contracts (>= 10x mmap-open,
    # replay byte-identity, flat streaming RSS with a positive
    # control) and fails the gate via its exit code.
    build/bench/perf_ingest --smoke \
        --json=BENCH_ingest.smoke.json
}

run_perfbench_smoke() {
    echo "==> tier1: perfbench-smoke"
    for workload in fig11 hot-reread write-churn; do
        python3 perfbench/run.py --workload "${workload}" --seconds 1
    done
    echo "==> tier1: perfbench-smoke digests match perfbench/digests.txt"
    for workload in fig11 hot-reread write-churn; do
        python3 perfbench/run.py --workload "${workload}" --seed 7 \
            --seconds 1
    done
    echo "==> tier1: perfbench-smoke seed 7 passes reproduce their validation"
    for workload in fig11 hot-reread write-churn; do
        python3 perfbench/run.py --workload "${workload}" --trace 1 \
            --seconds 1
    done
    echo "==> tier1: perfbench-smoke traced runs match with telemetry armed"
}

for preset in "${PRESETS[@]}"; do
    if [ "${preset}" = "perfbench-smoke" ]; then
        run_perfbench_smoke
        continue
    fi
    if [ "${preset}" = "bench-smoke" ]; then
        run_bench_smoke
        continue
    fi
    if [ "${preset}" = "ingest-smoke" ]; then
        run_ingest_smoke
        continue
    fi
    if [ "${preset}" = "gc-smoke" ]; then
        run_gc_smoke
        continue
    fi
    if [ "${preset}" = "fault-smoke" ]; then
        run_fault_smoke
        continue
    fi
    if [ "${preset}" = "crash-smoke" ]; then
        run_crash_smoke
        continue
    fi
    echo "==> tier1: preset '${preset}'"
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "${JOBS}"
    ctest --preset "${preset}" -j "${JOBS}"
done

echo "==> tier1: all presets green (${PRESETS[*]})"
