#!/usr/bin/env bash
# Record the wall-clock events/sec benchmark to BENCH_wallclock.json.
#
#   BUILD_DIR=build-release OUT=BENCH_wallclock.json ./bench/run_wallclock_bench.sh
#
# Configures and builds a dedicated Release tree (never reuses a debug
# build: the binary itself also refuses to run without NDEBUG), verifies
# the cache really says Release, then runs bench_wallclock. The binary
# exits non-zero unless the history hash is identical across every
# sync x exec configuration, and — on hosts with >= 4 CPUs — threaded
# execution reaches >= 1.0x sequential events/sec at rings of >= 4 LPs.
# MASSF_WALLCLOCK_SCALE scales the simulated horizon (CI smoke: 0.25).
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build-release}"
OUT="${OUT:-BENCH_wallclock.json}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
if ! grep -q '^CMAKE_BUILD_TYPE:[A-Z]*=Release$' "$BUILD_DIR/CMakeCache.txt"; then
  echo "error: $BUILD_DIR is not a Release build; refusing to record." >&2
  echo "Use a fresh BUILD_DIR or reconfigure with -DCMAKE_BUILD_TYPE=Release." >&2
  exit 1
fi
cmake --build "$BUILD_DIR" --target bench_wallclock -j >/dev/null

# exec propagates the benchmark binary's exit code to the caller verbatim.
exec "$BUILD_DIR/bench/bench_wallclock" "$OUT"
