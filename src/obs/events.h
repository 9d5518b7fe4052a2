// Structured JSONL event stream: typed records, one JSON object per line.
//
// An Event is an ordered list of (key, value) fields serialized as a
// single-line JSON object; the writer prepends the envelope fields
//
//   {"dynet_event":1,"seq":N,"ts_ms":T,"type":"<type>", ...fields...}
//
// where `seq` is a per-file monotonic sequence number and `ts_ms` wall-clock
// milliseconds since the Unix epoch (events are an operational log —
// unlike metrics.json they are never expected to be deterministic).
//
// EventWriter is the crash-safe append sink behind a campaign's
// events.jsonl: the file is opened O_APPEND and every record is flushed as
// one write(2), so a SIGKILL can tear at most the final line.  Re-opening
// for append repairs exactly that case — the file is truncated back to the
// last complete line and `seq` continues from the surviving record count,
// which is what keeps an interrupted-and-resumed campaign's stream
// contiguous.  emit() is thread-safe (one mutex, whole-line writes);
// emitDurable() also fdatasyncs before it returns, for the records a
// campaign resumes from.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dynet::obs {

/// One structured event under construction.  Fields serialize in insertion
/// order; values are JSON-escaped strings, round-trippable numbers
/// (writeJsonNumber), or booleans.
class Event {
 public:
  explicit Event(std::string type) : type_(std::move(type)) {}

  Event& str(const std::string& key, const std::string& value);
  Event& num(const std::string& key, double value);
  Event& boolean(const std::string& key, bool value);
  /// A value that is already one rendered single-line JSON value.
  Event& raw(const std::string& key, std::string json);

  const std::string& type() const { return type_; }

  /// The full single-line record with the envelope fields filled in.
  /// `ts_ms` <= 0 means "stamp with the current wall clock".
  std::string serialize(std::uint64_t seq, std::int64_t ts_ms = 0) const;

 private:
  std::string type_;
  std::vector<std::pair<std::string, std::string>> fields_;  // pre-rendered
};

/// Current wall-clock time in milliseconds since the Unix epoch.
std::int64_t wallClockMs();

class EventWriter {
 public:
  /// File-backed append sink.  Creates the file if missing; if it exists,
  /// truncates a torn trailing line (no final newline — a writer died
  /// mid-record) and continues `seq` from the number of surviving lines.
  /// Throws util::CheckError when the file cannot be opened.
  explicit EventWriter(const std::string& path);

  /// Stream-backed sink for tests; `out` must outlive the writer.
  explicit EventWriter(std::string* out);

  ~EventWriter();
  EventWriter(const EventWriter&) = delete;
  EventWriter& operator=(const EventWriter&) = delete;

  /// Serializes and appends one record; returns the sequence number it got.
  /// Thread-safe.
  std::uint64_t emit(const Event& event);
  /// emit(), then fdatasync: the record (and every one before it) is on
  /// disk when this returns.  The sync runs outside the lock, so other
  /// threads keep appending meanwhile.  Throws util::CheckError when the
  /// sync fails.
  std::uint64_t emitDurable(const Event& event);

  /// Records written by this writer plus lines inherited from the file.
  std::uint64_t nextSeq() const { return seq_; }

 private:
  std::mutex mutex_;
  int fd_ = -1;
  std::string* sink_ = nullptr;
  std::uint64_t seq_ = 0;
};

}  // namespace dynet::obs
