// The `dynet_cli --worker` loop: the subprocess half of the campaign
// scheduler's supervision protocol.
//
// Protocol (JSON lines over stdin/stdout):
//   parent -> worker : one canonical shard-config JSON object per line
//   worker -> parent : per shard, a shard_exec_started event line, a
//                      shard_exec_finished event line (exec_ms / engine_us /
//                      trials), then one ShardResult JSON line, each flushed
//   parent closes stdin (EOF) -> worker exits 0
//
// The worker is deliberately dumb: no retries, no checkpointing, no
// timeouts — all of that is the supervisor's job.  A malformed config line
// or a simulation failure raises util::CheckError, which the worker lets
// escape (exit 1 with the diagnostic on stderr); the supervisor counts the
// resulting EOF as a strike.  Sabotage hooks ("crash", "hang",
// "crash_once") are honored here so tests can exercise the supervision
// ladder with real processes.
//
// Event lines are JSON objects starting with `{"dynet_event"`.  The
// supervisor recognizes the prefix, re-emits those two event types into the
// campaign's events.jsonl with slot/attempt context, and treats the first
// non-event line as the shard result.  Committing that result is the
// supervisor's job alone.
#pragma once

#include <iosfwd>

namespace dynet::campaign {

/// Runs the worker loop until EOF on `in`.  Returns the process exit code.
int workerMain(std::istream& in, std::ostream& out);

}  // namespace dynet::campaign
