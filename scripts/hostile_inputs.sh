#!/usr/bin/env bash
# Hostile-input smoke: each tool must reject a hostile input with a located
# error and exit status 1, never die by a signal or an uncaught exception.
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
#   * bench_campaign --workers 0 and bench_gap --trials 0 (every bench main
#     goes through bench::guardedMain, which reports a CheckError and exits
#     1 instead of dying by SIGABRT).
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

expect_exit_1() {
  local status=0
  "$@" > "$dir/out.txt" 2>&1 || status=$?
  if [[ $status -ne 1 ]]; then
    echo "hostile input: '$*' exited $status, expected 1" >&2
    cat "$dir/out.txt" >&2
    exit 1
  fi
  echo "rejected (exit 1): $(tail -n 1 "$dir/out.txt")"
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
