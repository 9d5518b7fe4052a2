// Line-oriented subprocess supervision (POSIX).
//
// The campaign scheduler isolates shard execution in worker processes
// (`dynet_cli --worker`) speaking JSON-lines over stdin/stdout, so a worker
// that segfaults, aborts on a DYNET_CHECK, or wedges in an infinite loop
// costs one shard attempt instead of the whole sweep.  Subprocess is the
// minimal supervision primitive behind that: fork/exec with all three
// standard streams piped, deadline-bounded line reads (poll on the read
// end), and kill-then-reap teardown.
//
// Reads are buffered internally; writeLine/readLine are not thread-safe —
// one supervisor thread owns one Subprocess.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

namespace dynet::util {

class Subprocess {
 public:
  /// Spawns argv[0] with `argv` as its argument vector (argv[0] is the
  /// executable path; no shell, no PATH search).  stdin, stdout and stderr
  /// are piped.  Drain stderr via drainStderrLines, so a supervisor can
  /// re-emit complete lines through a single writer instead of letting
  /// children interleave mid-line — the caller owns keeping the pipe
  /// drained (readLine drains it opportunistically while waiting on
  /// stdout).  Throws util::CheckError when the pipes or fork fail; an exec
  /// failure surfaces as immediate child exit 127.
  static Subprocess spawn(const std::vector<std::string>& argv);

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&&) = delete;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  /// Kills (SIGKILL) and reaps the child if still running.
  ~Subprocess();

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }

  /// Writes `line` plus '\n' to the child's stdin.  Returns false when the
  /// pipe is broken (child already dead) instead of raising SIGPIPE.
  bool writeLine(const std::string& line);

  enum class ReadStatus {
    kLine,     // *out holds one line (newline stripped)
    kEof,      // child closed stdout (exited or crashed)
    kTimeout,  // deadline expired with no complete line
  };

  /// Reads one '\n'-terminated line from the child's stdout, waiting at
  /// most `timeout_ms` (< 0 = wait forever).  On kTimeout the child is
  /// still running and the partial data stays buffered.  Stderr is drained
  /// into the internal buffer while waiting, so a chatty child can't fill
  /// the pipe and deadlock against us.
  ReadStatus readLine(std::string* out, int timeout_ms);

  /// Moves every complete stderr line received so far into `out`
  /// (newlines stripped).  Non-blocking; partial trailing data stays
  /// buffered until its newline arrives or the child exits.
  void drainStderrLines(std::vector<std::string>* out);

  /// SIGKILLs the child (no-op if already reaped).
  void kill();

  /// Reaps the child, blocking until it exits.  Returns the exit code for
  /// a normal exit, or -signal when the child died on a signal.  Idempotent
  /// (returns the cached status on repeat calls).
  int wait();

 private:
  Subprocess() = default;

  void pumpStderr();  // non-blocking read into stderr_buffer_

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  int stderr_fd_ = -1;      // -1 once the child closed its stderr
  std::string buffer_;        // stdout bytes past the last returned line
  std::string stderr_buffer_;  // stderr bytes past the last drained line
  bool reaped_ = false;
  int exit_status_ = 0;  // valid once reaped_
};

}  // namespace dynet::util
