#!/usr/bin/env bash
# Runs the repository benchmark at smoke size (`bash benchmark/run.sh
# --smoke`: every workload's correctness gates, seed 1) and compares each
# workload's output_digest with scripts/bench_smoke_digests.txt.  Fails if
# a gate fails or any digest differs; on a mismatch it prints the measured
# digests in the file's format.
#
# Usage: scripts/check_bench_digests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
bash benchmark/run.sh --smoke | tee "$out"

# "workload NAME  seed 1 ..." opens a run; "  output_digest HEX" closes it.
measured="$(awk '$1 == "workload" { w = $2 }
                 $1 == "output_digest" { print w, $2 }' "$out")"
expected="$(grep -v '^#' scripts/bench_smoke_digests.txt)"
if [[ "$measured" != "$expected" ]]; then
  echo "benchmark smoke digests differ from scripts/bench_smoke_digests.txt:" >&2
  diff <(echo "$expected") <(echo "$measured") >&2 || true
  exit 1
fi
echo "benchmark smoke digests match scripts/bench_smoke_digests.txt"
