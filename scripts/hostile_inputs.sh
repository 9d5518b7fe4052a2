#!/usr/bin/env bash
# Hostile-input smoke: each tool must reject a hostile input with a located
# error and exit status 1, never die by a signal or an uncaught exception.
# The one exception is a campaign shard too large for memory: it costs the
# shard, not the campaign, so that campaign exits 3 (incomplete) with a
# report.
#
#   bash scripts/hostile_inputs.sh [BUILD_DIR]    (default: build)
#
#   * 20,000 nested '[' to dynet_stats --in (the JSON nesting cap);
#   * a campaign spec with "nodes": [1e10] to dynet_cli --campaign (range
#     checks before a JSON number becomes an int);
#   * a dynet-trace v1 file whose payload word is "zz" to trace_to_dot --in
#     (whole-field trace parsing);
#   * a campaign spec whose fault has "drop_prob": -0.5 to dynet_cli
#     --campaign (every campaign real is range-checked at parse, not inside
#     each shard);
#   * a trace whose actions start in round 2 to trace_to_dot --round 2 (an
#     action trace lists every node once in every round, so no round's
#     actions are missing);
#   * dynet_cli --nodes 4294967298 (integer flags are range-checked before
#     they narrow to int);
#   * dynet_cli --campaign-status on an events.jsonl with a garbage line
#     after a valid campaign_started (the error names the line, and the
#     DYNET_CHECK location prefix appears once, not once per rethrow);
#   * trace_to_dot --round 4294967297 on a one-round trace (the round is
#     range-checked before it narrows, so it cannot wrap to round 1);
#   * bench_campaign --workers 0 and bench_gap --trials 0 (every bench and
#     example main goes through util::guardedMain, which reports a
#     CheckError and exits 1 instead of dying by SIGABRT);
#   * leader_election_demo --nodes 4294967298 and aggregation_demo --k 0
#     (an example's integer flags are range-checked, with the range the
#     library checks, before they narrow; the error names the flag);
#   * a campaign resume whose events.jsonl has a garbage line after its
#     records (the fold names the line; the stream is left as it was);
#   * a campaign resume into a checkpoint with the pre-journal shards/
#     directory (refused, naming the directory);
#   * dynet_cli --trace-info on the event list `0 1e15 a b`, and on `0 1 a
#     b` / `5 6 b c` with --trace-bucket 1e-300 (a bucketed round is
#     range-checked before it narrows to int, so it cannot wrap below the
#     round cap; the error names the line);
#   * dynet_cli --c 0 (every real flag is finite and inside the range the
#     campaign spec reader gives its key; the error names the flag);
#   * an in-process campaign whose spec has "nodes": [2000000000], under
#     `ulimit -v 2000000` (each attempt's std::bad_alloc is a strike, the
#     shard is quarantined with the error, the report is written and the
#     exit status is 3);
#   * dynet_cli --nodes 2000000000 on a static ring, and trace_to_dot on a
#     trace whose header is `n 2000000000`, each under `ulimit -v 2000000`
#     (running out of memory is an error naming --nodes, or the trace line
#     and n, with exit status 1).
#
# Never run the last three inputs without the ulimit: uncapped, they would
# ask for far more memory than a host has.
#
# The inputs live in a temp dir that is removed on exit.
set -euo pipefail
build="${1:-build}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

head -c 20000 /dev/zero | tr '\0' '[' > "$dir/deep.json"
cat > "$dir/nodes.json" <<'SPEC'
{"protocols": ["flood"], "adversaries": ["static_path"], "nodes": [1e10],
 "seeds": {"count": 1}}
SPEC
printf 'dynet-trace v1\nn 2\nr 1\ne 0 1\ns 0 8 zz\n' > "$dir/bad.trace"
cat > "$dir/drop.json" <<'SPEC'
{"protocols": ["flood"], "adversaries": ["static_path"], "nodes": [8],
 "seeds": {"count": 1}, "faults": [{"name": "bad", "drop_prob": -0.5}]}
SPEC
printf 'dynet-trace v1\nn 2\nr 1\ne 0 1\nr 2\ne 0 1\ns 0 8 aa\nq 1\n' \
  > "$dir/late.trace"
mkdir "$dir/events"
cat > "$dir/events/events.jsonl" <<'EVENTS'
{"dynet_event":1,"seq":0,"ts_ms":1,"type":"campaign_started","campaign":"c","name":"x","shards_total":1,"completed_prior":0,"quarantined_prior":0,"pending":1,"workers":1,"subprocess":false}
garbage
EVENTS

expect_exit() {
  local want=$1 status=0
  shift
  "$@" > "$dir/out.txt" 2>&1 || status=$?
  if [[ $status -ne $want ]]; then
    echo "hostile input: '$*' exited $status, expected $want" >&2
    cat "$dir/out.txt" >&2
    exit 1
  fi
  echo "rejected (exit $want): $(tail -n 1 "$dir/out.txt")"
}
expect_exit_1() { expect_exit 1 "$@"; }
expect_output() {
  grep -q -e "$1" "$dir/out.txt" || {
    echo "hostile input: the output does not name '$1'" >&2
    cat "$dir/out.txt" >&2
    exit 1
  }
}
expect_exit_1 "$build/tools/dynet_stats" --in "$dir/deep.json"
expect_exit_1 "$build/tools/dynet_cli" --campaign "$dir/nodes.json" \
  --checkpoint "$dir/checkpoint"
expect_exit_1 "$build/tools/trace_to_dot" --in "$dir/bad.trace"
expect_exit_1 "$build/tools/dynet_cli" --campaign "$dir/drop.json" \
  --checkpoint "$dir/checkpoint-drop"
expect_exit_1 "$build/tools/trace_to_dot" --in "$dir/late.trace" --round 2
expect_exit_1 "$build/tools/dynet_cli" --protocol leader_known_d \
  --adversary static_path --nodes 4294967298
expect_exit_1 "$build/tools/dynet_cli" --campaign-status "$dir/events"
grep -q "event line 2" "$dir/out.txt" || {
  echo "hostile input: --campaign-status did not name the bad line" >&2
  exit 1
}
if [[ "$(grep -o "DYNET_CHECK failed" "$dir/out.txt" | wc -l)" -ne 1 ]]; then
  echo "hostile input: --campaign-status repeats the DYNET_CHECK prefix" >&2
  cat "$dir/out.txt" >&2
  exit 1
fi
printf 'dynet-trace v1\nn 2\nr 1\ne 0 1\n' > "$dir/one.trace"
expect_exit_1 "$build/tools/trace_to_dot" --in "$dir/one.trace" \
  --round 4294967297
expect_exit_1 "$build/bench/bench_campaign" --workers 0
expect_exit_1 "$build/bench/bench_gap" --trials 0
expect_exit_1 "$build/examples/leader_election_demo" --nodes 4294967298
expect_output "--nodes=4294967298 is outside"
expect_exit_1 "$build/examples/aggregation_demo" --k 0
expect_output "--k=0 is outside \[1, 1023\]"
printf '0 1e15 a b\n' > "$dir/wide.events"
expect_exit_1 "$build/tools/dynet_cli" --trace-info "$dir/wide.events" \
  --no-trace-cache
expect_output "wide.events:1: event maps to round 1e+15 > 5000000"
printf '0 1 a b\n5 6 b c\n' > "$dir/fine.events"
expect_exit_1 "$build/tools/dynet_cli" --trace-info "$dir/fine.events" \
  --no-trace-cache --trace-bucket 1e-300
expect_output "fine.events:1: event maps to round 1e+300 > 5000000"
expect_exit_1 "$build/tools/dynet_cli" --protocol leader_unknown_d \
  --nodes 8 --c 0
expect_output "--c=0 is not a finite number in (0, 0.333333]"

cat > "$dir/small.json" <<'SPEC'
{"protocols": ["flood"], "adversaries": ["static_path"], "nodes": [8],
 "seeds": {"count": 4, "per_shard": 1}, "max_rounds": 64}
SPEC
status=0
"$build/tools/dynet_cli" --campaign "$dir/small.json" \
  --checkpoint "$dir/garbage" --shard-limit 1 > /dev/null 2>&1 || status=$?
[[ $status -eq 3 ]] || {
  echo "hostile input: the partial campaign exited $status, expected 3" >&2
  exit 1
}
echo garbage >> "$dir/garbage/events.jsonl"
lines=$(wc -l < "$dir/garbage/events.jsonl")
cp "$dir/garbage/events.jsonl" "$dir/garbage-events.before"
expect_exit_1 "$build/tools/dynet_cli" --campaign "$dir/small.json" \
  --checkpoint "$dir/garbage"
expect_output "event line $lines: "
cmp -s "$dir/garbage/events.jsonl" "$dir/garbage-events.before" || {
  echo "hostile input: the refused resume changed events.jsonl" >&2
  exit 1
}
mkdir -p "$dir/prejournal/shards"
expect_exit_1 "$build/tools/dynet_cli" --campaign "$dir/small.json" \
  --checkpoint "$dir/prejournal"
expect_output "$dir/prejournal/shards"

cat > "$dir/huge.json" <<'SPEC'
{"protocols": ["flood"], "adversaries": ["static_path"],
 "nodes": [2000000000], "seeds": {"count": 1}, "max_rounds": 1}
SPEC
(
  ulimit -v 2000000
  expect_exit 3 "$build/tools/dynet_cli" --campaign "$dir/huge.json" \
    --checkpoint "$dir/huge"
)
expect_output "QUARANTINED after 3 attempts: std::bad_alloc"
test -s "$dir/huge/report.json" || {
  echo "hostile input: the bad_alloc campaign wrote no report" >&2
  exit 1
}
(
  ulimit -v 2000000
  expect_exit_1 "$build/tools/dynet_cli" --protocol flood \
    --adversary static_ring --nodes 2000000000 --max-rounds 1
)
expect_output "--nodes=2000000000: out of memory"
printf 'dynet-trace v1\nn 2000000000\nr 1\ne 0 1\n' > "$dir/huge.trace"
(
  ulimit -v 2000000
  expect_exit_1 "$build/tools/trace_to_dot" --in "$dir/huge.trace"
)
expect_output "trace line 2 'n 2000000000': out of memory"
