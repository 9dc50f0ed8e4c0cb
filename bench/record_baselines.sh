#!/usr/bin/env sh
# Records machine-readable performance baselines for the perf trajectory.
#
# Usage: bench/record_baselines.sh [build_dir] [out_dir]
#
# Runs each bench that has a --json sink and stores the results as
# BENCH_*.json in the repository root (or out_dir):
#   BENCH_throughput.json  — row-vs-batch / batch-size / shard sweeps
#   BENCH_wire.json        — wire v1 vs v2 size + encode/decode throughput,
#                            plus frozen-image size / freeze throughput /
#                            restore-to-first-answer vs v2 decode
#   BENCH_fig10_epoch.json — per-epoch %RRMSE: USS/DSS, decayed, window,
#                            plus the §6.3 bursty / all-distinct patterns
#   BENCH_service.json     — framed ingest + query round-trip throughput
#   BENCH_window.json      — epoch-ring ingest/advance/query cost across
#                            ring sizes, decay on/off, cached vs uncached
#                            window queries
# Later changes compare their sweeps against these files to prove
# speedups / catch regressions; every file opens with a "machine" record
# (hardware_concurrency, compiler version; written by bench_util.h's
# JsonSink) so numbers are interpreted against the machine that produced
# them.

set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"

for bench in bench_throughput bench_wire bench_fig10_epoch_rrmse \
             bench_service bench_window; do
  if [ ! -x "${BUILD_DIR}/bench/${bench}" ]; then
    echo "error: ${BUILD_DIR}/bench/${bench} not built" >&2
    echo "build first: cmake --preset release && cmake --build build -j" >&2
    exit 1
  fi
done

"${BUILD_DIR}/bench/bench_throughput" \
  --json="${OUT_DIR}/BENCH_throughput.json"

"${BUILD_DIR}/bench/bench_wire" \
  --json="${OUT_DIR}/BENCH_wire.json"

"${BUILD_DIR}/bench/bench_fig10_epoch_rrmse" \
  --json="${OUT_DIR}/BENCH_fig10_epoch.json"

"${BUILD_DIR}/bench/bench_service" \
  --json="${OUT_DIR}/BENCH_service.json"

"${BUILD_DIR}/bench/bench_window" \
  --json="${OUT_DIR}/BENCH_window.json"

echo ""
echo "baselines written to ${OUT_DIR}/BENCH_{throughput,wire,fig10_epoch,service,window}.json"
