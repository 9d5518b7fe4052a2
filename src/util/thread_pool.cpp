#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/env.h"

namespace dynet::util {

namespace {

// One spin-wait iteration: tells the core this is a busy-wait loop, which
// saves power and frees the sibling hyperthread.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spins until done() or kSpin has passed; true when done() came true.
template <typename Done>
bool spinUntil(Done&& done) {
  const auto deadline = std::chrono::steady_clock::now() + ThreadPool::kSpin;
  for (unsigned i = 1;; ++i) {
    if (done()) {
      return true;
    }
    cpuRelax();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads != 0
                   ? threads
                   : std::max(1u, std::thread::hardware_concurrency())) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true);
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::work(Job& job) {
  bool ran = false;
  while (true) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) {
      return ran;
    }
    ran = true;
    try {
      job.call(job.body, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (!job.error || i < job.error_index) {
        job.error = std::current_exception();
        job.error_index = i;
      }
    }
  }
}

bool ThreadPool::helpOnce() {
  bool ran = false;
  for (Slot& slot : slots_) {
    if (slot.job.load(std::memory_order_relaxed) == nullptr) {
      continue;
    }
    // Register before looking: a caller that cleared `job` after this
    // increment waits for the decrement below (seq_cst on both sides).
    slot.users.fetch_add(1);
    Job* job = slot.job.load();
    if (job != nullptr) {
      ran = work(*job) || ran;
    }
    if (slot.users.fetch_sub(1) == 1) {
      slot.users.notify_all();
    }
  }
  return ran;
}

void ThreadPool::workerLoop() {
  // True after running an index or waking: either way a job is likely
  // to follow soon, so the worker spins before it blocks.  A woken worker
  // that blocked again at once would never catch a job shorter than its
  // wake-up time.
  bool spin = false;
  while (true) {
    const std::uint64_t seen = epoch_.load();
    if (stop_.load(std::memory_order_relaxed)) {
      return;
    }
    if (helpOnce()) {
      spin = true;
      continue;
    }
    if (spin) {
      spin = false;
      spinning_.fetch_add(1);
      spinUntil([&] {
        return epoch_.load(std::memory_order_relaxed) != seen ||
               stop_.load(std::memory_order_relaxed);
      });
      spinning_.fetch_sub(1);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    sleeping_.fetch_add(1);
    cv_.wait(lock, [&] { return stop_.load() || epoch_.load() != seen; });
    sleeping_.fetch_sub(1);
    spin = true;
  }
}

ThreadPool::Slot* ThreadPool::publish(Job& job) {
  for (Slot& slot : slots_) {
    bool expected = false;
    if (slot.taken.load(std::memory_order_relaxed) ||
        !slot.taken.compare_exchange_strong(expected, true)) {
      continue;
    }
    slot.job.store(&job);
    epoch_.fetch_add(1);
    // Wake sleepers only for the indices the spinning workers will not
    // take.  A worker going to sleep registers in sleeping_ under mu_ and
    // then rereads epoch_, so either it sees this publish or this reads
    // its registration and the notify below (after taking mu_) reaches it.
    const std::size_t helpers = std::min<std::size_t>(job.n - 1, threads_);
    const std::size_t spinning = spinning_.load();
    const std::size_t sleeping = sleeping_.load();
    if (helpers > spinning && sleeping > 0) {
      { std::lock_guard<std::mutex> lock(mu_); }
      for (std::size_t w = std::min(helpers - spinning, sleeping); w > 0; --w) {
        cv_.notify_one();
      }
    }
    return &slot;
  }
  return nullptr;  // every slot is taken: the caller runs the job alone
}

void ThreadPool::retire(Slot& slot) {
  slot.job.store(nullptr);
  // Workers still inside the job finish the indices they claimed; the
  // caller has claimed all others.
  if (!spinUntil([&] { return slot.users.load() == 0; })) {
    for (std::uint32_t users = slot.users.load(); users != 0;
         users = slot.users.load()) {
      slot.users.wait(users);
    }
  }
  slot.taken.store(false, std::memory_order_release);
}

void ThreadPool::run(Job& job) {
  if (job.n == 0) {
    return;
  }
  Slot* slot = nullptr;
  if (job.n > 1) {
    std::call_once(started_, [this] {
      workers_.reserve(threads_);
      for (unsigned i = 0; i < threads_; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
      }
    });
    slot = publish(job);
  }
  work(job);
  if (slot != nullptr) {
    retire(*slot);
  }
  if (job.error) {
    std::rethrow_exception(job.error);
  }
}

unsigned parseThreadCount(const char* value) {
  return static_cast<unsigned>(
      parseEnvInt("DYNET_THREADS", value, /*fallback=*/0, 1, 4096));
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(parseThreadCount(std::getenv("DYNET_THREADS")));
  return pool;
}

}  // namespace dynet::util
