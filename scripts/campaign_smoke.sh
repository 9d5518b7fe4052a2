#!/usr/bin/env bash
# Kill-and-resume smoke test for the campaign runner (docs/CAMPAIGNS.md).
#
# 1. Run a campaign to completion -> reference report A.
# 2. Stop the same spec early twice, each in a fresh checkpoint dir: a
#    deterministic --shard-limit partial run, and a run whose whole process
#    group is SIGKILLed as soon as its first shard commits (between 1 and
#    23 of the 24 shards must survive).
# 3. Resume from the survivor checkpoints -> report B.
# 4. Assert A and B are byte-identical and that the resume actually
#    skipped previously committed shards.
# 5. Assert the copies that --report (beside a run) and --campaign-report
#    --spec (a re-merge) write equal report A.
#
# Usage: scripts/campaign_smoke.sh [path/to/dynet_cli]
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-build/tools/dynet_cli}"
[[ -x "$CLI" ]] || { echo "dynet_cli not found at $CLI" >&2; exit 1; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Distinct shards with a shard_committed record in a checkpoint's
# events.jsonl: the stream is the only place a result is kept.
committed_shards() {
  { grep -s '"type":"shard_committed"' "$1/events.jsonl" || true; } \
    | sed 's/.*"shard":"\([0-9a-f]*\)".*/\1/' | sort -u | wc -l
}

cat > "$work/spec.json" <<'EOF'
{
  "name": "smoke",
  "protocols": ["flood", "leader_known_d", "count"],
  "adversaries": ["static_path", "random_tree"],
  "nodes": [16, 25],
  "seeds": {"base": 11, "count": 4, "per_shard": 2},
  "max_rounds": 50000
}
EOF

echo "=== uninterrupted reference run ==="
"$CLI" --campaign "$work/spec.json" --checkpoint "$work/ref" --workers 4 \
  --isolation subprocess --report "$work/ref-copy.json"

echo "=== deterministic partial run (--shard-limit) ==="
"$CLI" --campaign "$work/spec.json" --checkpoint "$work/resume" \
  --shard-limit 5 && rc=0 || rc=$?
[[ "$rc" -eq 3 ]] || { echo "expected exit 3 from partial run, got $rc" >&2; exit 1; }
committed_before=$(committed_shards "$work/resume")
[[ "$committed_before" -ge 5 ]] || { echo "partial run committed too few shards" >&2; exit 1; }

echo "=== SIGKILL mid-flight ==="
# Fresh dir; kill the campaign's process group as soon as its event stream
# holds a committed shard (polled every 10 ms, for at most 30 s), so the
# resume below starts from a partial checkpoint; a fixed delay can outlast
# the whole sweep on a fast host.
setsid "$CLI" --campaign "$work/spec.json" --checkpoint "$work/killed" \
  --workers 2 --isolation subprocess >/dev/null 2>&1 &
victim=$!
deadline=$((SECONDS + 30))
while (( SECONDS < deadline )) && kill -0 "$victim" 2>/dev/null; do
  grep -qs '"type":"shard_committed"' "$work/killed/events.jsonl" && break
  sleep 0.01
done
kill -KILL -- "-$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
survivors=$(committed_shards "$work/killed")
echo "shards committed before the kill: $survivors"
[[ "$survivors" -ge 1 && "$survivors" -le 23 ]] || {
  echo "the kill left $survivors of 24 shards committed, not a partial run" >&2
  exit 1
}

echo "=== resume both checkpoints ==="
"$CLI" --campaign "$work/spec.json" --checkpoint "$work/resume" --workers 4
"$CLI" --campaign "$work/spec.json" --checkpoint "$work/killed" --workers 4 \
  --isolation subprocess

echo "=== byte-identity ==="
cmp "$work/ref/report.json" "$work/resume/report.json"
cmp "$work/ref/report.json" "$work/killed/report.json"
cmp "$work/ref/report.json" "$work/ref-copy.json"
"$CLI" --campaign-report "$work/killed" --spec "$work/spec.json" \
  --report "$work/remerged.json" > /dev/null
cmp "$work/ref/report.json" "$work/remerged.json"
cmp "$work/ref/report.json" "$work/killed/report.json"

# The resumed runs must have credited prior work rather than redoing it.
"$CLI" --campaign "$work/spec.json" --checkpoint "$work/resume" \
  | grep -q "completed (prior) |     24" \
  || { echo "no-op resume did not credit all prior shards" >&2; exit 1; }

echo "=== telemetry: folded status + event stream ==="
# The resumed killed run's event stream must fold into a finished status
# whose counts match the merged report, rendered by --campaign-status.
status_out=$("$CLI" --campaign-status "$work/killed")
echo "$status_out"
echo "$status_out" | grep -q "finished" \
  || { echo "the folded status is not in the finished state" >&2; exit 1; }
echo "$status_out" | grep -Eq "done *\| *24" \
  || { echo "the folded status does not report 24 shards done" >&2; exit 1; }

# Interrupt + resume must not re-announce commits: every shard_committed
# event in the merged stream names a distinct shard.
dupes=$(grep '"type":"shard_committed"' "$work/killed/events.jsonl" \
  | sed 's/.*"shard":"\([0-9a-f]*\)".*/\1/' | sort | uniq -d)
[[ -z "$dupes" ]] \
  || { echo "duplicate shard_committed events for: $dupes" >&2; exit 1; }

# Sequence numbers must be contiguous across the kill + resume.
awk -F'"seq":' '{split($2, a, ","); if (a[1] + 0 != NR - 1) exit 1}' \
  "$work/killed/events.jsonl" \
  || { echo "events.jsonl seq numbers are not contiguous" >&2; exit 1; }

if [[ -n "${SMOKE_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  cp "$work/killed/events.jsonl" "$SMOKE_ARTIFACT_DIR/"
fi

echo "CAMPAIGN SMOKE PASSED"
