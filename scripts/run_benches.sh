#!/usr/bin/env bash
# Runs the bench binaries and collects their BENCH_JSON result lines into
# per-bench JSON files, so the perf trajectory is trackable across PRs.
#
# Usage: scripts/run_benches.sh [build-dir] [output-dir]
#   build-dir   defaults to ./build (must already be configured & built,
#               e.g. `cmake -B build -S . && cmake --build build --target benches`)
#   output-dir  defaults to <build-dir>/bench_results

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-${BUILD_DIR}/bench_results}"

# Benches that emit BENCH_JSON lines; extend as more get instrumented.
# bench_recovery runs both its scenarios (wiki pipeline + large-state
# delta) by default, so the snapshot includes the checkpoint
# base-vs-delta bytes and the build-phase wave-pause p99; set
# ALBIC_BENCH_SCENARIO to narrow it. bench_latency snapshots all three
# migration timelines — direct, indirect and lease (p*_us_lease_*,
# lease_pause_ms, lease_migration_bytes) — plus the skewed-cost planning
# comparison and the budgeted-vs-lease scale-out reaction scenario
# (scaleout_*).
BENCHES=(
  bench_engine_throughput
  bench_latency
  bench_recovery
  bench_fig5_integrated_scaling
)

if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "error: ${BUILD_DIR}/bench not found — build the 'benches' target first" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

for bench in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "skip: ${bench} (not built)" >&2
    continue
  fi
  echo "=== ${bench}"
  log="${OUT_DIR}/${bench}.log"
  # Benches that call BenchObservabilityBegin record a Chrome trace of the
  # run (migration pauses, checkpoint rounds, recovery windows) next to the
  # snapshots; load it in Perfetto / chrome://tracing.
  ALBIC_TRACE_OUT="${OUT_DIR}/TRACE_${bench#bench_}.json" \
    "${bin}" | tee "${log}"
  out="${OUT_DIR}/BENCH_${bench#bench_}.json"
  # sed -n exits 0 even with no matches (grep would trip pipefail when a
  # bench emits no BENCH_JSON lines yet).
  lines="$(sed -n 's/^BENCH_JSON //p' "${log}" | paste -sd "," -)"
  # Self-describing snapshots: BENCH_META lines carry the run's effective
  # knobs (shard queue/chunk, telemetry mode); merge them into a "meta"
  # object next to the results. Duplicate keys keep the last occurrence
  # downstream — benches emit each key once.
  meta="$(sed -n 's/^BENCH_META //p' "${log}" | sort -u | paste -sd "," -)"
  # The final metrics-registry snapshot (engine counters of the run), one
  # JSON object per BENCH_METRICS line; keep the last.
  metrics="$(sed -n 's/^BENCH_METRICS //p' "${log}" | tail -n 1)"
  # Capture environment, so a snapshot records the machine it measured —
  # bench_compare.py warns when baselines and candidates disagree here.
  env_json="$(printf '{"nproc":%s,"uname":"%s"}' \
    "$(nproc 2>/dev/null || echo 0)" "$(uname -srm 2>/dev/null || echo unknown)")"
  printf '{\n"meta":{%s},\n"capture_env":%s,\n"engine_metrics":%s,\n"results":[\n%s\n]\n}\n' \
    "${meta}" "${env_json}" "${metrics:-null}" "${lines}" >"${out}"
  echo "wrote ${out}"
done
