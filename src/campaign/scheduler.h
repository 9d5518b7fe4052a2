// The campaign scheduler: work-sharing shard execution with worker
// supervision, checkpoint/resume, and retry/timeout/backoff.
//
// runCampaign expands the spec into shards, drops every shard whose last
// durable record in the checkpoint's events.jsonl is a commit or a
// quarantine (that single fold IS crash recovery — a record is fdatasync'd
// before the shard counts, so a SIGKILL'd campaign lost at most the shards
// that were in flight), then lets `workers` supervisor threads claim the
// remainder from a shared atomic cursor.  Each supervisor executes its
// shard either
//
//   * in-process (default): directly through campaign::runShard — no
//     isolation, but no spawn cost; a thrown attempt failure still goes
//     through the retry/quarantine ladder, or
//   * in a supervised subprocess: a persistent `<worker_cmd> --worker`
//     child speaking one JSON line per shard over stdin/stdout.  The
//     supervisor enforces the spec's per-shard wall-clock timeout
//     (SIGKILL + respawn on expiry), detects crashes / nonzero exits, and
//     reuses a healthy worker across shards.
//
// Failed attempts retry after capped exponential backoff
// (RetryPolicy::backoffDelayMs); after max_attempts strikes the shard is
// QUARANTINED — recorded, skipped by future resumes, and reported as
// missing coverage — and the campaign keeps going.  An in-process attempt
// that throws any std::exception (a CheckError, or a std::bad_alloc from a
// shard too large for memory) is a strike like a worker crash.  Graceful
// degradation over aborting is the design center: a 10k-shard sweep with
// one pathological cell still delivers 9,999 shards of data.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "campaign/spec.h"
#include "campaign/store.h"

namespace dynet::campaign {

struct CampaignOptions {
  std::string checkpoint_dir;
  /// Supervisor threads (and, in subprocess mode, live workers).
  unsigned workers = 1;
  /// True: run shards in supervised `worker_cmd --worker` subprocesses.
  bool subprocess = false;
  /// Worker executable for subprocess mode (normally dynet_cli itself).
  std::string worker_cmd;
  /// Stop (gracefully, exit-incomplete) after committing this many NEW
  /// shards; 0 = run to completion.  Deterministic partial campaigns for
  /// the kill-and-resume smoke tests and incremental budgeted runs.
  int shard_limit = 0;
  /// Requeue quarantined shards (a durable shard_requeued record each)
  /// and try them again.
  bool retry_quarantined = false;
  /// Per-shard progress lines on stderr.
  bool verbose = false;
};

struct CampaignOutcome {
  std::size_t shards_total = 0;
  /// Committed results found at startup (resume credit).
  std::size_t completed_prior = 0;
  /// Shards committed by this run.
  std::size_t completed_new = 0;
  std::size_t quarantined = 0;
  /// Attempts that failed (including ones later retried successfully).
  std::size_t failed_attempts = 0;
  /// True when shard_limit stopped the run before the queue drained.
  bool stopped_early = false;

  std::size_t completed() const { return completed_prior + completed_new; }
  bool fullCoverage() const { return completed() == shards_total; }
};

/// Runs (or resumes) the campaign against its checkpoint directory, then
/// rewrites `<dir>/report.json` and `<dir>/scheduler_profile.json`.  Throws
/// util::CheckError when the directory already belongs to a different spec
/// or its events.jsonl holds a malformed line.
CampaignOutcome runCampaign(const CampaignSpec& spec,
                            const CampaignOptions& options);

/// Coverage of a merged report.
struct ReportInfo {
  std::size_t shards_total = 0;
  std::size_t shards_covered = 0;
  std::size_t shards_quarantined = 0;
  std::size_t trials = 0;
};

/// Merges every committed shard result of the store's events.jsonl (in spec
/// expansion order — the output is independent of execution order, worker
/// count, and how many times the campaign was interrupted) into a
/// metrics.json-schema report that dynet_stats can summarize and diff.
/// Per-trial samples land in `trial/<metric>` series; coverage in
/// `campaign/...` counters/gauges.
ReportInfo writeReport(const CampaignSpec& spec, const CheckpointStore& store,
                       std::ostream& out);

}  // namespace dynet::campaign
