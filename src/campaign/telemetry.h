// Campaign telemetry: the event stream that is a campaign's durable record,
// the live status and shard outcomes folded from it, and scheduler
// self-profiling.
//
// Two artifacts land in the campaign's checkpoint directory:
//
//   events.jsonl            append-only typed event stream (obs::EventWriter:
//                           O_APPEND + whole-line writes, torn tail repaired
//                           on resume, seq contiguous across interruptions)
//   scheduler_profile.json  metrics.json-schema profile of where supervisor
//                           time went (campaign//<stage>/... samples plus
//                           any prof/ timers from in-process execution),
//                           diffable with dynet_stats
//
// Three records are durable: shard_committed (carrying the shard's result),
// shard_quarantined and shard_requeued are fdatasync'd before their emit
// returns, and the last of them for a shard hash is that shard's outcome.
// Resume and the report merge read those outcomes from foldEvents; the
// other records are unsynced progress.  The same fold replays the stream
// into counts and an attention map, which is what `dynet_cli
// --campaign-status` renders.  Each CampaignTelemetry method is one emit,
// ordered by the EventWriter's own lock.
//
// Correlation chain: every event carries the campaign id (the hex FNV-1a of
// the spec identity — the same string the spec.json guard compares), shard
// events carry the shard's content hash, and attempt-scoped events carry
// the 1-based attempt number.  Worker subprocesses report shard_exec_*
// events over the stdout JSON-lines protocol; the supervisor re-emits those
// two types here with slot/attempt context, so one stream covers in-process
// and subprocess execution identically, and only the supervisor writes a
// durable record.
//
// The folded status's terminal counts match the merged report; its
// timestamps and rates are wall-clock (docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <sys/types.h>

#include "campaign/shard_exec.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace dynet::campaign {

class CheckpointStore;

/// Writes `line` + '\n' to stderr as one whole-line write under one
/// process-wide mutex: every campaign progress line — the scheduler's and
/// those drained from worker stderr pipes — goes through here, so
/// concurrent supervisors and chatty workers never interleave mid-line.
void humanLine(const std::string& line);

/// A campaign's live state, folded from the records of its events.jsonl
/// since the last campaign_started.
struct CampaignStatus {
  /// One shard worth a second look: running, retrying or quarantined, or
  /// committed only after a retry.
  struct Shard {
    std::string state;  // running | retrying | done | quarantined
    int attempts = 1;
    std::string last_error;
  };

  std::string campaign;  // the campaign id
  std::string name;
  std::string state;     // running | finished | stopped_early
  std::int64_t started_ms = 0;  // ts_ms of the campaign_started record
  std::int64_t updated_ms = 0;  // ts_ms of the last record
  std::size_t shards_total = 0;
  std::size_t done = 0;  // includes completed_prior
  std::size_t completed_prior = 0;
  std::size_t running = 0;   // attention shards running
  std::size_t retrying = 0;  // attention shards waiting to retry
  std::size_t pending = 0;
  std::size_t quarantined = 0;
  std::size_t failed_attempts = 0;
  /// Trials committed by this run; at campaign_finished, the merged
  /// report's trial count.
  std::size_t trials_done = 0;
  std::map<std::string, Shard> attention;  // by shard hash
};

/// A shard's outcome: its last durable record in the stream.  A requeued
/// shard is pending, as one without a record is.
struct ShardRecord {
  enum class State { kCommitted, kQuarantined, kRequeued };
  State state = State::kRequeued;
  ShardResult result;  // kCommitted: the committed result
  int attempts = 0;    // kQuarantined: strikes spent
  std::string error;   // kQuarantined: the last strike's reason
};

/// One pass over an events.jsonl stream.
struct EventFold {
  /// The status of the last campaign run: nullopt when the stream holds no
  /// campaign_started record.
  std::optional<CampaignStatus> status;
  /// Every shard with a durable record, by hash, across all runs.
  std::map<std::string, ShardRecord> shards;
};

/// Folds an events.jsonl stream.  A final line without a newline is a torn
/// tail and is skipped; a malformed complete line throws a CheckError
/// naming its 1-based line number.
EventFold foldEvents(std::istream& in);

class CampaignTelemetry {
 public:
  /// Opens (or resumes) `<store dir>/events.jsonl`.  `campaign_id` is the
  /// spec-identity hash; `shards_total` the full expansion size.
  CampaignTelemetry(CheckpointStore& store, std::string campaign_name,
                    std::string campaign_id, std::size_t shards_total,
                    unsigned workers, bool subprocess);

  // -- campaign span ------------------------------------------------------
  void campaignStarted(std::size_t completed_prior,
                       std::size_t quarantined_prior, std::size_t pending);
  /// `trials_total` is the merged report's trial count (all committed
  /// shards, prior runs included), so the folded terminal status agrees
  /// with report.json even after resumes.
  void campaignFinished(std::size_t completed, std::size_t quarantined,
                        std::size_t failed_attempts, std::size_t trials_total,
                        bool stopped_early);

  // -- shard / attempt transitions ---------------------------------------
  void shardClaimed(const std::string& hash, std::size_t index,
                    double queue_wait_ms);
  void attemptStarted(const std::string& hash, int attempt);
  /// Execution span around one attempt.  `origin` is "inprocess" or
  /// "worker"; `slot` is the supervisor slot (worker events carry the slot
  /// whose subprocess produced them).  `engine_us` < 0 means unknown.
  void execStarted(const std::string& hash, int attempt,
                   const std::string& origin, int slot);
  void execFinished(const std::string& hash, int attempt,
                    const std::string& origin, int slot, double exec_ms,
                    double engine_us, int trials);
  void attemptFailed(const std::string& hash, int attempt, int max_attempts,
                     const std::string& error, int backoff_ms);
  /// The three durable records: each returns once its line is fdatasync'd.
  void shardCommitted(const std::string& hash, int attempt,
                      const ShardResult& result);
  void shardQuarantined(const std::string& hash, int attempts,
                        const std::string& error);
  /// A quarantined shard put back in the queue (--retry-quarantined).
  void shardRequeued(const std::string& hash);

  // -- worker lifecycle ---------------------------------------------------
  void workerSpawned(int slot, pid_t pid, double spawn_ms);
  void workerExited(int slot, pid_t pid, int status,
                    const std::string& reason);
  /// Re-emits one worker-emitted event line (a stdout line starting with
  /// `{"dynet_event"`) with campaign/slot/attempt context attached.  Only
  /// shard_exec_started and shard_exec_finished are taken from a worker;
  /// any other type, and a malformed line, is dropped through humanLine.
  void workerEvent(int slot, int attempt, const std::string& line);
  /// One complete line drained from a worker's piped stderr: re-printed
  /// through humanLine and recorded as a worker_stderr event.
  void workerStderr(int slot, const std::string& line);

  // -- scheduler self-profile --------------------------------------------
  /// Writes `<store dir>/scheduler_profile.json` from the merged
  /// per-supervisor registries (campaign//<stage> samples, prof/ timers).
  void writeSchedulerProfile(const obs::MetricsRegistry& merged);

 private:
  obs::Event event(const std::string& type) const;

  CheckpointStore& store_;
  const std::string name_;
  const std::string campaign_id_;
  const std::size_t shards_total_;
  const unsigned workers_;
  const bool subprocess_;

  obs::EventWriter events_;
};

}  // namespace dynet::campaign
