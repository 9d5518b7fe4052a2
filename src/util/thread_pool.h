// Work-sharing thread pool for parallel Monte Carlo trials, all-sources
// diameter computation and the engine's node-range chunks.
//
// parallelFor(n, body) runs body(i) for every i in [0, n) and returns when
// all of them have finished.  The calling thread claims indices like any
// worker, so whatever no worker claims, the caller runs: results never
// depend on how many workers joined, and a parallelFor nested inside a body
// (a BatchRunner trial whose engine chunks its rounds, the diameter oracle
// inside a trial) cannot deadlock.  The job lives on the caller's stack and
// is published in one of kSlots fixed slots, so a call allocates nothing;
// when every slot is taken, the caller runs the whole job itself.
//
// Phase-sized jobs.  The engine calls parallelFor a few times per round with
// chunks of tens of microseconds, separated by serial gaps of about the same
// length (the adversary phase, the caller's own code between steps).  A
// worker that blocks on a condition variable takes tens of microseconds to
// wake, which would eat a chunk's worth of work on every call.  So a worker
// that has just run an index, or has just been woken, spins for up to kSpin,
// watching for the next job, before it blocks; one whose spin ends in a
// job it finds fully claimed blocks at once.  A published job wakes at
// most as many blocked workers as it has indices beyond the caller's,
// minus the workers already spinning, so a k-index job puts at most k
// threads to work, caller included.
//
// Exceptions.  An exception escaping body(i) is caught on the thread that
// ran index i.  Once every index has finished, the exception of the lowest
// failing index is rethrown on the caller — the one a serial loop over
// [0, n) would have thrown first.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dynet::util {

class ThreadPool {
 public:
  /// How long a worker that has just run an index waits for the next job
  /// before it blocks.  It must bridge the serial gaps between chunked
  /// phases.  Measured on a 4-vCPU Xeon at n = 32768 (flood, 16-edge
  /// churn): the adversary phase takes about 14 us, and the repository
  /// benchmark spends 55-105 us (median, 90th percentile) of its own
  /// between steps; a blocked worker took about 30 us to wake, longer
  /// than a whole chunk.  Between 50 and 200 us the step time kept
  /// falling, and 1000 us read the same as 200, so 200 us bridges the
  /// gaps of a stepping engine while a worker left idle gives its core
  /// back within a fifth of a millisecond.
  static constexpr std::chrono::microseconds kSpin{200};

  /// threads == 0 selects hardware_concurrency (at least 1).  The workers
  /// start with the first parallelFor that can use them, so a pool that is
  /// only asked for threadCount() starts none.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (the caller of parallelFor is not counted).
  unsigned threadCount() const { return threads_; }

  /// Runs body(i) for each i in [0, n), in parallel, blocking until done;
  /// rethrows the lowest failing index's exception (header comment).
  template <typename Body>
  void parallelFor(std::size_t n, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    Job job;
    job.n = n;
    job.body = std::addressof(body);
    job.call = [](const void* fn, std::size_t i) {
      (*static_cast<Fn*>(const_cast<void*>(fn)))(i);
    };
    run(job);
  }

  /// Process-wide default pool.  Sized from the DYNET_THREADS environment
  /// variable when it holds a positive integer (deterministic CI, sanitizer
  /// jobs, container cgroup limits), else hardware_concurrency.  The
  /// variable is read once, when the pool is first used.
  static ThreadPool& shared();

 private:
  /// One parallelFor call, on its caller's stack.
  struct Job {
    void (*call)(const void* body, std::size_t i) = nullptr;
    const void* body = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};  // next unclaimed index
    std::mutex error_mu;
    std::size_t error_index = 0;  // index of `error`
    std::exception_ptr error;
  };

  /// Where a job is published.  `users` counts the workers that may still
  /// touch the slot's job: the caller retires a job by clearing `job` and
  /// waiting for `users` to drain, and only then frees the slot.
  struct alignas(64) Slot {
    std::atomic<Job*> job{nullptr};
    std::atomic<std::uint32_t> users{0};
    std::atomic<bool> taken{false};
  };

  static constexpr std::size_t kSlots = 16;

  void run(Job& job);
  Slot* publish(Job& job);
  void retire(Slot& slot);
  /// Claims and runs indices of `job` until none is left; true when it ran
  /// at least one.
  static bool work(Job& job);
  /// One pass over the slots, joining every job with indices left; true
  /// when it ran at least one index.
  bool helpOnce();
  void workerLoop();

  unsigned threads_;
  std::once_flag started_;
  std::vector<std::thread> workers_;
  std::array<Slot, kSlots> slots_;
  std::atomic<std::uint64_t> epoch_{0};  // bumped by every publish
  std::atomic<unsigned> spinning_{0};
  std::atomic<unsigned> sleeping_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;  // sleeping workers and stop_
  std::condition_variable cv_;
};

/// Parses the DYNET_THREADS override: returns the value for a decimal
/// integer in [1, 4096], or 0 — "use the default" — for null/empty (the
/// variable is unset).  Anything else (garbage, zero, overflow) throws
/// util::CheckError with a message naming the variable — a typo'd override
/// must not silently select hardware_concurrency (util::parseEnvInt).
/// Pure; exposed separately from ThreadPool::shared() so tests can cover
/// the parsing without mutating the process environment.
unsigned parseThreadCount(const char* value);

}  // namespace dynet::util
