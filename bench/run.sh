#!/usr/bin/env bash
# Record one committed benchmark result from a Release build.
#
#   bench/run.sh <name>
#   BUILD_DIR=build-release OUT=BENCH_<name>.json bench/run.sh <name>
#
# <name> is one of kernel, paper, ablations, scale, lb, rebalance; it runs
# bench_kernel, bench_paper, bench_ablations, bench_scale, bench_lb_policies
# or bench_ablation_rebalance and writes BENCH_<name>.json through
# bench::Report (bench/common.hpp): top-level keys bench, context,
# run_config, results, gates and passed, one gate {name, value, threshold,
# enforced, passed, reason} per acceptance clause (listed in each binary's
# header comment), and exit status 0 if and only if at least one gate was
# enforced and every enforced gate passed.
# tests/bench/check_reports.py (ctest bench_reports) checks the committed
# files.
#
# Configures and builds a dedicated Release tree, verifies the cache really
# says Release (recording a debug build would publish numbers 10-50x off;
# bench::Report also refuses to run without NDEBUG), and only then runs the
# benchmark. The benchmark's exit status is the script's.
#
# Environment: BUILD_DIR (default build-release), OUT (default
# BENCH_<name>.json), plus each binary's own knobs — MASSF_WALLCLOCK_SCALE,
# MASSF_SCALE_MAX_NODES, MASSF_LB_MAX_CLIENTS, MASSF_BENCH_REPLICAS. Run on
# an idle machine: the threaded benchmarks measure real time.
set -euo pipefail

NAME="${1:-}"
case "$NAME" in
  kernel) TARGET=bench_kernel ;;
  paper) TARGET=bench_paper ;;
  ablations) TARGET=bench_ablations ;;
  scale) TARGET=bench_scale ;;
  lb) TARGET=bench_lb_policies ;;
  rebalance) TARGET=bench_ablation_rebalance ;;
  *)
    echo "usage: $0 <kernel|paper|ablations|scale|lb|rebalance>" >&2
    exit 2
    ;;
esac

BUILD_DIR="${BUILD_DIR:-build-release}"
OUT="${OUT:-BENCH_$NAME.json}"
BIN="$BUILD_DIR/bench/$TARGET"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
if ! grep -q '^CMAKE_BUILD_TYPE:[A-Z]*=Release$' "$BUILD_DIR/CMakeCache.txt"; then
  echo "error: $BUILD_DIR is not a Release build; refusing to record." >&2
  echo "Use a fresh BUILD_DIR or reconfigure with -DCMAKE_BUILD_TYPE=Release." >&2
  exit 1
fi
cmake --build "$BUILD_DIR" --target "$TARGET" -j >/dev/null

# exec propagates the benchmark binary's exit code to the caller verbatim.
exec "$BIN" "$OUT"
