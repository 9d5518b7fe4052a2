// The campaign's checkpoint directory.
//
// Layout under the checkpoint directory, and nothing else:
//
//   spec.json               the spec this directory answers for (guard
//                           against resuming into a foreign checkpoint)
//   events.jsonl            append-only event stream (campaign/telemetry.h):
//                           the one durable record of every shard outcome
//                           and of the campaign's live status
//   report.json             merged report (rewritten after every run)
//   scheduler_profile.json  where supervisor time went
//
// A shard's outcome is the last of its durable records in events.jsonl:
// shard_committed (which carries the result), shard_quarantined or
// shard_requeued.  The campaign's one EventWriter fdatasyncs each of them
// before the scheduler counts, prints or reports the shard, and a SIGKILL
// can tear only the final line, which every reader skips.  So a resumed
// campaign runs exactly the shards whose last record is not a commit or a
// quarantine.  The other files are written whole: staged beside their
// target, fsync'd, then renamed into place.
//
// The store only reads events.jsonl, so a CheckpointStore may fold a
// directory whose campaign is still running.
#pragma once

#include <optional>
#include <string>

#include "campaign/telemetry.h"

namespace dynet::campaign {

class CheckpointStore {
 public:
  /// Opens (creating if needed) the checkpoint directory.  Throws
  /// util::CheckError when the path exists but is not a directory, or when
  /// it holds the shards/ directory of the pre-journal layout, whose
  /// results this store does not read.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Folds `<dir>/events.jsonl` (an empty fold when there is none).
  /// Throws a CheckError naming the line of a malformed record.
  EventFold fold() const;

  /// Atomic write of a top-level file (spec.json, report.json,
  /// scheduler_profile.json).
  void writeFile(const std::string& filename, const std::string& contents);
  std::optional<std::string> readFile(const std::string& filename) const;

 private:
  std::string dir_;
};

}  // namespace dynet::campaign
