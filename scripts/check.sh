#!/usr/bin/env bash
# Full verification pass: release build + tests + benches, then a
# sanitizer build (ASan + UBSan) + tests.
#
# Every bench binary must support --quick (see bench/bench_common.h) and is
# run with it directly: a crashing or flag-rejecting bench fails this
# script.  (The old `"$b" --quick 2>/dev/null || "$b"` loop silently fell
# back to a full run — hiding both broken --quick handling and crashes.)
#
# The script leaves the working tree as it found it: it fails at the end if
# `git status --porcelain` differs from its state at the start.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
tree_state="$(git status --porcelain)"

echo "=== release build ==="
cmake -B build -S .
cmake --build build -j"$(nproc)"
echo "=== tests ==="
# --timeout: a wedged test (e.g. a supervision bug leaving a worker
# hanging) must fail the suite, not stall it forever.
ctest --test-dir build -j"$(nproc)" --output-on-failure --timeout 300
echo "=== extended differential fuzz (2000 configs) ==="
# The default 24 configs miss config 1639 (diam_32approx at n = 16 under
# corrupting and crashing faults), which pins the relayed-distance range
# check of the diameter protocols; about 5 s.
DYNET_FUZZ_CONFIGS=2000 build/tests/fuzz_diff_test
echo "=== hermeticity (trace_cli, campaign, dataset suites, parallel x5) ==="
# Each discovered test is its own process; run them concurrently and
# repeatedly so a scratch path shared between tests shows up as a failure.
trace_cli_suites='TraceCli'
campaign_suites='Campaign|CampaignSpec|CheckpointStore|RetryPolicy|ShardExec|Telemetry|Worker'
dataset_suites='EventList|SnapshotDir|Compile|CompiledCache|TraceAdversary|TraceCampaign'
ctest --test-dir build -j"$(nproc)" --output-on-failure --timeout 300 \
  --repeat until-fail:5 \
  -R "^(${trace_cli_suites}|${campaign_suites}|${dataset_suites})\\."
echo "=== benches (--quick smoke run, failures are fatal) ==="
# From a scratch directory: benches write their default JSON artifacts
# (BENCH_*.json) into the working directory, over the committed ones.
bench_dir="$(mktemp -d)"
for b in build/bench/*; do
  echo "--- $b --quick"
  (cd "$bench_dir" && "$root/$b" --quick)
done
rm -rf "$bench_dir"

echo "=== observability smoke (metrics + chrome trace + dynet_stats) ==="
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
build/tools/dynet_cli --protocol leader_unknown_d --adversary random_tree \
  --nodes 32 --seed 7 --metrics-out "$obs_dir/metrics.json" \
  --chrome-trace "$obs_dir/trace.json"
build/tools/dynet_stats --in "$obs_dir/metrics.json"
build/tools/dynet_stats --in "$obs_dir/metrics.json" \
  --baseline "$obs_dir/metrics.json"
build/bench/bench_faults --quick --metrics-out "$obs_dir/bench_metrics.json" \
  > /dev/null
build/tools/dynet_stats --in "$obs_dir/bench_metrics.json" > /dev/null

echo "=== engine perf smoke (all comparison modes, equality + speedup) ==="
build/bench/bench_sim_perf --quick \
  batch-vs-sequential delta-vs-rebuild soa-vs-objects scale \
  --json-out="$obs_dir/BENCH_sim_perf.json"
# Cross-shape diff: a bounded flood run on the SoA path against the leader
# run on objects exercises dynet_stats' soa// execution-shape section.
# Flood never reports done, so the CLI exits 1 by design.
status=0
build/tools/dynet_cli --protocol flood --adversary random_tree --nodes 32 \
  --seed 7 --max-rounds 64 --metrics-out "$obs_dir/flood_metrics.json" \
  > /dev/null || status=$?
if [[ $status -ne 1 ]]; then
  echo "bounded flood run exited $status, expected 1 (not all done)" >&2
  exit 1
fi
build/tools/dynet_stats --in "$obs_dir/flood_metrics.json" \
  --baseline "$obs_dir/metrics.json" > "$obs_dir/shape_diff.txt"
grep -Eq '^\| +soa//active +\|.*\(differs: expected\)' \
  "$obs_dir/shape_diff.txt" || {
  echo "dynet_stats did not flag soa//active as (differs: expected)" >&2
  exit 1
}

echo "=== hostile-input smoke (located errors, exit 1, no signal) ==="
bash scripts/hostile_inputs.sh build

echo "=== dataset smoke (gen -> info -> compile -> byte-identical -> replay) ==="
ds_dir="$(mktemp -d)"
python3 scripts/gen_trace.py --nodes 24 --rounds 120 --seed 11 \
  --out "$ds_dir/contacts.events"
build/tools/dynet_cli --trace-info "$ds_dir/contacts.events" --no-trace-cache
build/tools/dynet_cli --trace-compile "$ds_dir/contacts.events" \
  --out "$ds_dir/a.dtc"
build/tools/dynet_cli --trace-compile "$ds_dir/contacts.events" \
  --out "$ds_dir/b.dtc"
cmp "$ds_dir/a.dtc" "$ds_dir/b.dtc"  # recompile must be byte-identical
# count terminates after its round budget, so exit 0 certifies all_done.
build/tools/dynet_cli --protocol count --adversary trace \
  --trace-path "$ds_dir/contacts.events" --trace-policy mirror \
  --k 8 --max-rounds 4000 --seed 5
build/bench/bench_trace_replay --quick \
  --json-out="$ds_dir/BENCH_trace_replay.json" > /dev/null
rm -rf "$ds_dir"

echo "=== diameter smoke (round bounds + JSON artifact) ==="
# bench_diameter DYNET_CHECKs every protocol guarantee against the BFS
# oracle; here we also assert the rounds-vs-bound artifact is written.
build/bench/bench_diameter --quick \
  --json-out "$obs_dir/BENCH_diameter.json" > /dev/null
test -s "$obs_dir/BENCH_diameter.json"
build/tools/dynet_cli --protocol diam_exact --adversary ach_gadget \
  --nodes 36 --gadget-intersect --max-rounds 200 --seed 3

echo "=== campaign kill-and-resume smoke ==="
scripts/campaign_smoke.sh build/tools/dynet_cli

echo "=== repository benchmark smoke (gates + pinned output digests) ==="
bash scripts/check_bench_digests.sh

echo "=== sanitizer build (ASan + UBSan) ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DDYNET_SANITIZE=ON
cmake --build build-asan -j"$(nproc)"
ctest --test-dir build-asan -j"$(nproc)" --output-on-failure --timeout 600

echo "=== working tree left as found ==="
if [[ "$(git status --porcelain)" != "$tree_state" ]]; then
  echo "check.sh changed the working tree; git status --porcelain was:" >&2
  echo "$tree_state" >&2
  echo "and is now:" >&2
  git status --porcelain >&2
  exit 1
fi

echo "ALL CHECKS PASSED"
