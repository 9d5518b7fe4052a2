#include "util/subprocess.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

#include "util/check.h"

namespace dynet::util {

namespace {

void closeFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Subprocess Subprocess::spawn(const std::vector<std::string>& argv) {
  DYNET_CHECK(!argv.empty()) << "empty argv";
  // [0] = child stdin (parent writes), [1] = stdout, [2] = stderr.
  int pipes[3][2];
  for (int i = 0; i < 3; ++i) {
    if (::pipe(pipes[i]) != 0) {
      const int err = errno;
      for (int j = 0; j < i; ++j) {
        ::close(pipes[j][0]);
        ::close(pipes[j][1]);
      }
      DYNET_CHECK(false) << "pipe: " << std::strerror(err);
    }
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    for (auto& p : pipes) {
      ::close(p[0]);
      ::close(p[1]);
    }
    DYNET_CHECK(false) << "fork: " << std::strerror(err);
  }
  if (pid == 0) {
    // Child: wire the pipe ends onto stdin/stdout/stderr, drop the rest.
    ::dup2(pipes[0][0], STDIN_FILENO);
    ::dup2(pipes[1][1], STDOUT_FILENO);
    ::dup2(pipes[2][1], STDERR_FILENO);
    for (auto& p : pipes) {
      ::close(p[0]);
      ::close(p[1]);
    }
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    // exec failed: exit without running atexit handlers of the forked image.
    ::_exit(127);
  }
  Subprocess p;
  p.pid_ = pid;
  p.stdin_fd_ = pipes[0][1];
  p.stdout_fd_ = pipes[1][0];
  p.stderr_fd_ = pipes[2][0];
  ::close(pipes[0][0]);
  ::close(pipes[1][1]);
  ::close(pipes[2][1]);
  return p;
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdin_fd_(std::exchange(other.stdin_fd_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      stderr_fd_(std::exchange(other.stderr_fd_, -1)),
      buffer_(std::move(other.buffer_)),
      stderr_buffer_(std::move(other.stderr_buffer_)),
      reaped_(other.reaped_),
      exit_status_(other.exit_status_) {}

Subprocess::~Subprocess() {
  if (pid_ > 0 && !reaped_) {
    kill();
    wait();
  }
  closeFd(stdin_fd_);
  closeFd(stdout_fd_);
  closeFd(stderr_fd_);
}

bool Subprocess::writeLine(const std::string& line) {
  if (stdin_fd_ < 0) {
    return false;
  }
  std::string data = line;
  data.push_back('\n');
  std::size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL is socket-only; suppress SIGPIPE around the write so a
    // dead worker reads as a false return, not process death.
    struct sigaction ignore{};
    struct sigaction saved{};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &saved);
    const ssize_t n =
        ::write(stdin_fd_, data.data() + written, data.size() - written);
    ::sigaction(SIGPIPE, &saved, nullptr);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

Subprocess::ReadStatus Subprocess::readLine(std::string* out, int timeout_ms) {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      out->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return ReadStatus::kLine;
    }
    if (stdout_fd_ < 0) {
      return ReadStatus::kEof;
    }
    struct pollfd pfds[2];
    pfds[0] = {stdout_fd_, POLLIN, 0};
    nfds_t nfds = 1;
    if (stderr_fd_ >= 0) {
      pfds[1] = {stderr_fd_, POLLIN, 0};
      nfds = 2;
    }
    const int ready = ::poll(pfds, nfds, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ReadStatus::kEof;
    }
    if (ready == 0) {
      return ReadStatus::kTimeout;
    }
    if (nfds == 2 && (pfds[1].revents & (POLLIN | POLLHUP)) != 0) {
      pumpStderr();
      if ((pfds[0].revents & (POLLIN | POLLHUP)) == 0) {
        // Only stderr had data; poll again so a stdout timeout still means
        // "no result line", not "the worker was chatty on stderr".
        continue;
      }
    }
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ReadStatus::kEof;
    }
    if (n == 0) {
      // EOF with a danging partial line: drop it — results are whole lines.
      return ReadStatus::kEof;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Subprocess::pumpStderr() {
  if (stderr_fd_ < 0) {
    return;
  }
  char chunk[4096];
  for (;;) {
    struct pollfd pfd {
      stderr_fd_, POLLIN, 0
    };
    const int ready = ::poll(&pfd, 1, 0);
    if (ready <= 0) {
      return;
    }
    const ssize_t n = ::read(stderr_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      // EOF (or error): stop watching the fd; buffered data stays drainable.
      closeFd(stderr_fd_);
      return;
    }
    stderr_buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Subprocess::drainStderrLines(std::vector<std::string>* out) {
  pumpStderr();
  std::size_t nl;
  while ((nl = stderr_buffer_.find('\n')) != std::string::npos) {
    out->emplace_back(stderr_buffer_, 0, nl);
    stderr_buffer_.erase(0, nl + 1);
  }
  if (stderr_fd_ < 0 && !stderr_buffer_.empty()) {
    // Child is gone and left an unterminated final line; surface it rather
    // than losing the tail of a crash message.
    out->push_back(stderr_buffer_);
    stderr_buffer_.clear();
  }
}

void Subprocess::kill() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
  }
}

int Subprocess::wait() {
  if (reaped_ || pid_ <= 0) {
    return exit_status_;
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) {
      break;
    }
  }
  reaped_ = true;
  if (WIFEXITED(status)) {
    exit_status_ = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    exit_status_ = -WTERMSIG(status);
  } else {
    exit_status_ = -1;
  }
  return exit_status_;
}

}  // namespace dynet::util
