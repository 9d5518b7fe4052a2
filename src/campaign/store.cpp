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
  const fs::path legacy = fs::path(dir_) / "shards";
  DYNET_CHECK(!fs::exists(legacy))
      << "checkpoint dir " << dir_ << " holds " << legacy.string()
      << " from the pre-journal layout, whose results live outside "
         "events.jsonl; rerun the campaign into a fresh directory";
}

EventFold CheckpointStore::fold() const {
  std::ifstream in(fs::path(dir_) / "events.jsonl");
  return in.good() ? foldEvents(in) : EventFold{};
}

void CheckpointStore::writeFile(const std::string& filename,
                                const std::string& contents) {
  // Staged beside its target under a per-process name: a concurrent
  // campaign process writing the same file writes identical bytes, so
  // either rename winning is fine.
  const std::string final_path = (fs::path(dir_) / filename).string();
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
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
  // fsync before rename: the rename is the commit point, so a failed flush
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
