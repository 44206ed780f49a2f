#!/usr/bin/env bash
# Bench smoke: the kernel micro benches at a few iterations apiece plus one
# end-to-end harness bench at tiny parameters. This is the single source of
# truth for the smoke configuration — CI and developers both run this script,
# so the knobs cannot drift between the workflow file and local runs.
#
# Usage:  scripts/bench_smoke.sh [build_dir]          (default: build)
#
# Knobs (override via environment):
#   DDUP_ROWS / DDUP_QUERIES / DDUP_EPOCH_SCALE / DDUP_BOOTSTRAP — harness size
#   DDUP_CHECKPOINT_DIR — warm-start cache; set it to skip base-model training
#     on repeat runs (results are bit-identical either way, see bench/harness.h)
#   DDUP_BENCH_JSON_DIR — where the BENCH_*.json artifacts land
#     (default: <build_dir>/bench-json; CI uploads this directory)
set -euo pipefail

BUILD_DIR=${1:-build}
if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "bench_smoke: ${BUILD_DIR}/bench not found (build with benchmarks on)" >&2
  exit 1
fi

export DDUP_ROWS=${DDUP_ROWS:-400}
export DDUP_QUERIES=${DDUP_QUERIES:-10}
export DDUP_EPOCH_SCALE=${DDUP_EPOCH_SCALE:-0.1}
export DDUP_BOOTSTRAP=${DDUP_BOOTSTRAP:-20}
export DDUP_BENCH_JSON_DIR=${DDUP_BENCH_JSON_DIR:-${BUILD_DIR}/bench-json}

# Kernel-layer smoke (needs google-benchmark; skipped when the micro benches
# were not built, e.g. offline configures).
if [[ -x "${BUILD_DIR}/bench/bench_micro_tensor" ]]; then
  "${BUILD_DIR}/bench/bench_micro_tensor" \
    --benchmark_filter='MatMulValue|GemmInto|AffineRelu'
else
  echo "bench_smoke: bench_micro_tensor not built, skipping kernel smoke"
fi

# Public-API smoke: the multi-table Engine lifecycle (factory, micro-batched
# ingestion, Status surface, Save->Load bit-identity). Also a ctest target;
# running it here keeps the smoke script exercising the whole public surface.
if [[ -x "${BUILD_DIR}/examples/engine_smoke" ]]; then
  "${BUILD_DIR}/examples/engine_smoke" "${BUILD_DIR}/engine_smoke.ckpt"
else
  echo "bench_smoke: engine_smoke not built, skipping engine smoke"
fi

# Concurrency smoke: the async Engine (background update workers, snapshot
# serving) vs the synchronous engine under a short mixed Ingest/Estimate
# load. Tiny knobs — the full-size run is the concurrency baseline in
# ROADMAP.md; this only proves the path end to end.
if [[ -x "${BUILD_DIR}/bench/bench_engine_throughput" ]]; then
  DDUP_BENCH_TABLES=${DDUP_BENCH_TABLES:-2} \
  DDUP_BENCH_CLIENTS=${DDUP_BENCH_CLIENTS:-2} \
  DDUP_BENCH_SECONDS=${DDUP_BENCH_SECONDS:-2} \
  DDUP_BENCH_WORKERS=${DDUP_BENCH_WORKERS:-2} \
    "${BUILD_DIR}/bench/bench_engine_throughput"
else
  echo "bench_smoke: bench_engine_throughput not built, skipping"
fi

# Drift grid smoke: every detector in the zoo against every named drift
# scenario, scored on FPR / FNR / detection delay; writes
# BENCH_drift_grid.json (bit-identical for a fixed seed).
"${BUILD_DIR}/bench/bench_drift_grid"

# Estimate-batch smoke: scalar calls vs the model's batch override, estimate
# QPS over batch size x reader threads; writes BENCH_estimate_batch.json.
# Tiny grid — the committed full-size run lives in results/ (DESIGN.md §13).
DDUP_BENCH_ESTIMATES=${DDUP_BENCH_ESTIMATES:-64} \
DDUP_BENCH_MAX_THREADS=${DDUP_BENCH_MAX_THREADS:-2} \
  "${BUILD_DIR}/bench/bench_estimate_batch"

# End-to-end harness smoke: trains, detects, distills and prints the q-error
# table at tiny size. Exercises the full model/detector/update stack.
"${BUILD_DIR}/bench/bench_table5_update_qerror"
echo "bench_smoke: OK"
