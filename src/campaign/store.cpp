#include "campaign/store.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <utility>

#include "util/check.h"

namespace dynet::campaign {

namespace fs = std::filesystem;

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  DYNET_CHECK(!dir_.empty()) << "checkpoint dir must be non-empty";
  std::error_code ec;
  fs::create_directories(dir_, ec);
  DYNET_CHECK(!ec && fs::is_directory(dir_))
      << "cannot create checkpoint dir " << dir_ << ": " << ec.message();
  for (const char* sub : {"shards", "quarantine", "tmp"}) {
    fs::create_directories(fs::path(dir_) / sub, ec);
    DYNET_CHECK(!ec) << "cannot create " << dir_ << "/" << sub << ": "
                     << ec.message();
  }
}

std::string CheckpointStore::resultPath(const std::string& hash) const {
  return (fs::path(dir_) / "shards" / (hash + ".json")).string();
}

std::string CheckpointStore::quarantinePath(const std::string& hash) const {
  return (fs::path(dir_) / "quarantine" / (hash + ".json")).string();
}

bool CheckpointStore::hasResult(const std::string& hash) const {
  return fs::exists(resultPath(hash));
}

bool CheckpointStore::isQuarantined(const std::string& hash) const {
  return fs::exists(quarantinePath(hash));
}

void CheckpointStore::atomicWrite(const std::string& final_path,
                                  const std::string& contents) {
  // Unique staging name per (pid, target): concurrent supervisor threads
  // never commit the same hash, and a concurrent campaign process staging
  // the same shard writes identical bytes — either rename winning is fine.
  const std::string tmp_path =
      (fs::path(dir_) / "tmp" /
       (fs::path(final_path).filename().string() + "." +
        std::to_string(::getpid())))
          .string();
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  DYNET_CHECK(fd >= 0) << "cannot open " << tmp_path << ": "
                       << std::strerror(errno);
  std::size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      DYNET_CHECK(false) << "write " << tmp_path << ": "
                         << std::strerror(err);
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: a committed file must never be seen torn, even
  // across a power cut — the rename is the commit point, so a failed flush
  // or close must not reach it.
  const int synced = ::fsync(fd);
  const int sync_errno = errno;
  const int closed = ::close(fd);
  const int close_errno = errno;
  DYNET_CHECK(synced == 0) << "fsync " << tmp_path << ": "
                           << std::strerror(sync_errno);
  DYNET_CHECK(closed == 0) << "close " << tmp_path << ": "
                           << std::strerror(close_errno);
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  DYNET_CHECK(!ec) << "rename " << tmp_path << " -> " << final_path << ": "
                   << ec.message();
}

void CheckpointStore::commitResult(const std::string& hash,
                                   const std::string& json_line) {
  atomicWrite(resultPath(hash), json_line + "\n");
}

std::optional<std::string> CheckpointStore::loadResult(
    const std::string& hash) const {
  std::ifstream in(resultPath(hash));
  if (!in.good()) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void CheckpointStore::quarantine(const std::string& hash,
                                 const std::string& reason, int attempts) {
  std::ostringstream out;
  out << "{\"hash\":\"" << hash << "\",\"attempts\":" << attempts
      << ",\"reason\":\"";
  for (const char c : reason) {  // keep the marker parseable
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (c == '\n') {
      out << "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out << c;
    }
  }
  out << "\"}\n";
  atomicWrite(quarantinePath(hash), out.str());
}

void CheckpointStore::clearQuarantine(const std::string& hash) {
  std::error_code ec;
  fs::remove(quarantinePath(hash), ec);
}

void CheckpointStore::writeFile(const std::string& filename,
                                const std::string& contents) {
  atomicWrite((fs::path(dir_) / filename).string(), contents);
}

std::optional<std::string> CheckpointStore::readFile(
    const std::string& filename) const {
  std::ifstream in(fs::path(dir_) / filename);
  if (!in.good()) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace dynet::campaign
