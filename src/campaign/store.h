// Crash-safe checkpoint directory for campaign shards.
//
// Layout under the campaign's checkpoint directory:
//
//   spec.json               the spec this directory answers for (guard
//                           against resuming into a foreign checkpoint)
//   shards/<hash>.json      one committed ShardResult line per shard
//   quarantine/<hash>.json  shards given up on after max_attempts strikes
//   tmp/                    staging for atomic commits
//   report.json             merged report (rewritten after every run)
//   scheduler_profile.json  telemetry: where supervisor time went
//   events.jsonl            telemetry: append-only event stream, the one
//                           record of live status (campaign/telemetry.h)
//
// Every file but events.jsonl is committed via write-to-temp + fsync +
// rename, so a SIGKILL at any instant leaves either no file or a complete
// one — never a torn result a resume would trust.  A resumed campaign simply skips every
// hash that already has a committed result (or a quarantine marker), which
// is the whole recovery story: no journal, no locks, no sequence numbers.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace dynet::campaign {

class CheckpointStore {
 public:
  /// Opens (creating if needed) the checkpoint directory and its
  /// subdirectories.  Throws util::CheckError when the path exists but is
  /// not a directory.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const { return dir_; }

  bool hasResult(const std::string& hash) const;
  bool isQuarantined(const std::string& hash) const;

  /// Atomically commits one shard result (a single JSON line).  Last
  /// writer wins; results are deterministic so duplicate commits are
  /// byte-identical anyway.
  void commitResult(const std::string& hash, const std::string& json_line);

  /// Committed result text, or nullopt when the shard has none.
  std::optional<std::string> loadResult(const std::string& hash) const;

  /// Atomically records that a shard was given up on.
  void quarantine(const std::string& hash, const std::string& reason,
                  int attempts);
  /// Removes a quarantine marker (the --retry-quarantined path).
  void clearQuarantine(const std::string& hash);

  /// Atomic write of a top-level file (spec.json, report.json,
  /// scheduler_profile.json).
  void writeFile(const std::string& filename, const std::string& contents);
  std::optional<std::string> readFile(const std::string& filename) const;

 private:
  std::string resultPath(const std::string& hash) const;
  std::string quarantinePath(const std::string& hash) const;
  /// write-temp + fsync + rename into place.
  void atomicWrite(const std::string& final_path,
                   const std::string& contents);

  std::string dir_;
};

}  // namespace dynet::campaign
