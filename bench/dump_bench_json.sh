#!/usr/bin/env sh
# Run the kernel microbenchmarks and write the results as JSON so the perf
# trajectory is tracked in-tree from PR to PR.
#
# Usage: dump_bench_json.sh [path/to/bench_kernels] [output.json]
# Defaults assume a ./build tree and write BENCH_kernels.json in the repo
# root. Also available as the `bench_json` CMake target.
#
# When refreshing the committed BENCH_kernels.json, also sync the
# hwmodel::HostKernelRates constants in src/hwmodel/cost_model.hpp (the
# bench -> constant mapping is documented in docs/performance.md,
# "Cost-model calibration").
#
# The BM_ColdStart{Recompile,MmapLoad} rows track the compiled-model
# artifact's reason to exist (docs/model_format.md): mmap-loading a .qcg
# must stay an order of magnitude faster than recompiling the graph.
set -eu

BIN=${1:-build/bench_kernels}
OUT=${2:-BENCH_kernels.json}
[ $# -ge 1 ] && shift
[ $# -ge 1 ] && shift

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not found or not executable (build with: cmake --build build)" >&2
  exit 1
fi

# QCAPS_BENCH_FAST=1 (the CI bench-smoke mode) caps repetitions and minimum
# measurement time so the whole suite finishes quickly; the JSON keeps the
# same shape, just with noisier numbers.
#
# The full run is the interleaved best-of-reps harness: 3 repetitions with
# random interleaving, so cross-process drift (±18% on the single-core
# container) lands on every benchmark equally and the per-rep minimum in the
# JSON is the comparable number (the BM_PredictBatch* rows, including the
# quantized DeepCaps variants, are read this way).
FAST_ARGS=""
if [ "${QCAPS_BENCH_FAST:-0}" != "0" ] && [ -n "${QCAPS_BENCH_FAST:-}" ]; then
  # Unitless min_time: accepted by every google-benchmark version (newer
  # ones also take a "0.05s" form, older ones only the bare double).
  FAST_ARGS="--benchmark_min_time=0.05 --benchmark_repetitions=1"
else
  FAST_ARGS="--benchmark_repetitions=3"
  # Random interleaving needs google-benchmark >= 1.5.5; probe instead of
  # failing the whole run on older system libraries.
  if "$BIN" --benchmark_list_tests=true \
      --benchmark_enable_random_interleaving=true > /dev/null 2>&1; then
    FAST_ARGS="$FAST_ARGS --benchmark_enable_random_interleaving=true"
  fi
fi

# Extra args (e.g. --benchmark_filter=...) pass through to the binary.
"$BIN" --benchmark_out="$OUT" --benchmark_out_format=json $FAST_ARGS "$@"
echo "wrote $OUT"
