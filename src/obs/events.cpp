#include "obs/events.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace dynet::obs {

namespace {

std::string renderString(const std::string& value) {
  std::ostringstream out;
  writeJsonString(out, value);
  return out.str();
}

/// Scans the existing file: counts complete lines and returns the offset
/// just past the last newline, so a torn tail can be truncated away.
void scanExisting(int fd, std::uint64_t* lines, off_t* keep_bytes) {
  *lines = 0;
  *keep_bytes = 0;
  char chunk[4096];
  off_t offset = 0;
  for (;;) {
    const ssize_t n = ::pread(fd, chunk, sizeof chunk, offset);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    DYNET_CHECK(n >= 0) << "read event stream: " << std::strerror(errno);
    if (n == 0) {
      return;
    }
    for (ssize_t i = 0; i < n; ++i) {
      if (chunk[i] == '\n') {
        ++*lines;
        *keep_bytes = offset + i + 1;
      }
    }
    offset += n;
  }
}

}  // namespace

Event& Event::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, renderString(value));
  return *this;
}

Event& Event::num(const std::string& key, double value) {
  std::ostringstream out;
  writeJsonNumber(out, value);
  fields_.emplace_back(key, out.str());
  return *this;
}

Event& Event::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Event& Event::raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string Event::serialize(std::uint64_t seq, std::int64_t ts_ms) const {
  std::ostringstream out;
  out << "{\"dynet_event\":1,\"seq\":" << seq
      << ",\"ts_ms\":" << (ts_ms > 0 ? ts_ms : wallClockMs()) << ",\"type\":";
  writeJsonString(out, type_);
  for (const auto& [key, value] : fields_) {
    out << ',';
    writeJsonString(out, key);
    out << ':' << value;
  }
  out << '}';
  return out.str();
}

std::int64_t wallClockMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

EventWriter::EventWriter(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  DYNET_CHECK(fd_ >= 0) << "cannot open event stream " << path << ": "
                        << std::strerror(errno);
  std::uint64_t lines = 0;
  off_t keep = 0;
  scanExisting(fd_, &lines, &keep);
  struct stat st{};
  DYNET_CHECK(::fstat(fd_, &st) == 0)
      << "stat " << path << ": " << std::strerror(errno);
  if (st.st_size > keep) {
    // A previous writer was killed mid-record; drop the torn tail so every
    // line in the stream stays parseable.
    DYNET_CHECK(::ftruncate(fd_, keep) == 0)
        << "truncate torn event tail in " << path << ": "
        << std::strerror(errno);
  }
  seq_ = lines;
}

EventWriter::EventWriter(std::string* out) : sink_(out) {
  DYNET_CHECK(out != nullptr) << "null event sink";
}

EventWriter::~EventWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::uint64_t EventWriter::emit(const Event& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = seq_++;
  std::string line = event.serialize(seq);
  line.push_back('\n');
  if (sink_ != nullptr) {
    sink_->append(line);
    return seq;
  }
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    DYNET_CHECK(n >= 0) << "write event stream: " << std::strerror(errno);
    written += static_cast<std::size_t>(n);
  }
  return seq;
}

std::uint64_t EventWriter::emitDurable(const Event& event) {
  const std::uint64_t seq = emit(event);
  if (fd_ >= 0) {
    DYNET_CHECK(::fdatasync(fd_) == 0)
        << "fdatasync event stream: " << std::strerror(errno);
  }
  return seq;
}

}  // namespace dynet::obs
