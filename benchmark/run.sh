#!/usr/bin/env bash
# The repository benchmark (benchmark/README.md).  Builds dynet_bench from
# this checkout's sources into build-bench/, runs workloads, checks their
# outputs and prints every metric by name with its unit.
#
#   bash benchmark/run.sh [--workload W] [--seed S] [--seconds T]
#                         [--trace 0|1] [--smoke] [--out-dir DIR]
#
# Options take `--name value` or `--name=value`.  Without --workload all
# five workloads run, each in its own process.  --seconds is the measured
# time per workload (default 20, 1 with --smoke); BENCHMARK.json fixes it
# for comparisons.  --trace 1 reports the per-layer metrics instead of the
# end-to-end ones.  --smoke shrinks every workload, with the same gates,
# for quick iteration.  Each run writes a results file into DIR (default
# build-bench/results) for benchmark/compare.py.  Exits nonzero when a
# build fails or any correctness gate fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: $root holds no dynet sources to build" >&2
  exit 2
fi

workload="" seed=1 seconds="" trace=0 smoke=0 out_dir="build-bench/results"
while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "$arg" in
    --smoke) key="$arg" value="" ;;
    --*=*) key="${arg%%=*}" value="${arg#*=}" ;;
    --*)
      [[ $# -gt 0 ]] || { echo "run.sh: $arg needs a value" >&2; exit 2; }
      key="$arg" value="$1"
      shift
      ;;
    *) echo "run.sh: unexpected argument '$arg'" >&2; exit 2 ;;
  esac
  case "$key" in
    --workload) workload="$value" ;;
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --smoke) smoke=1 ;;
    --out-dir) out_dir="$value" ;;
    *) echo "run.sh: unknown option '$key'" >&2; exit 2 ;;
  esac
done

# Build output goes to stderr: the last stdout line of a run is its result.
# Temporary files of the compiler and of dynet_bench stay in the checkout.
build=build-bench
mkdir -p "$build/tmp"
export TMPDIR="$root/$build/tmp"
if [[ ! -f $build/CMakeCache.txt ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target dynet_bench -j "$(nproc)" >&2

# Load comes from one process; the library's shared thread pool stays at
# its default.
unset DYNET_THREADS
# Stamped into results files; git must not look above the checkout.
DYNET_BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" describe --always --dirty --abbrev=40 2>/dev/null ||
  echo unknown)"
export DYNET_BENCH_COMMIT
mkdir -p "$out_dir"

run_one() {
  local w="$1"
  local args=(--workload "$w" --seed "$seed" --trace "$trace"
    --out "$out_dir/$w-seed$seed-trace$trace-$(date +%Y%m%dT%H%M%S)-$$.json")
  if [[ -n $seconds ]]; then args+=(--seconds "$seconds"); fi
  if [[ $smoke == 1 ]]; then args+=(--smoke); fi
  if [[ $trace == 1 ]]; then args+=(--chrome-trace "$build/$w.chrome.json"); fi
  "$build/dynet_bench" "${args[@]}"
}

if [[ -n $workload ]]; then
  run_one "$workload"
  exit
fi
status=0
for w in leader_dynamic flood_large trace_replay diameter_gadgets campaign_sweep; do
  run_one "$w" || status=1
done
exit "$status"
