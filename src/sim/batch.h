// Parallel Monte Carlo trial runner: zero-allocation-steady-state batches.
//
// Runs `trials` independent executions (distinct seeds) of an experiment
// and aggregates per-trial scalar metrics — benches average over coin
// flips this way, matching the paper's average-coin-flip complexity
// definition.  A per-trial std::map<std::string, double> of results and a
// fresh set of O(N) engine scratch vectors per trial would be pure
// overhead at thousands of seeded trials per sweep point, so:
//
//   * Metric names are interned ONCE into dense MetricIds; trials record
//     through a TrialRecorder that writes doubles into flat
//     [metric][trial] arrays, no maps or strings on the trial path.
//   * Each worker checks an EngineWorkspace out of a pool and hands it to
//     the engines it builds, so action/inbox/liveness vectors keep their
//     capacity across trials instead of being reallocated per seed.
//
// Determinism contract: trial i always runs with seed
// hashCombine(base_seed, i), and per-metric samples are merged in trial
// order, so the resulting TrialSummary is identical to the sequential
// per-trial loop regardless of thread count — pinned by
// tests/batch_runner_test.cpp.
//
// Thread-safety: run() may be called from one thread at a time per runner.
// TrialRecorder::set is safe from concurrent trials (distinct trials write
// distinct slots; interning takes a shared mutex only to guard against a
// concurrent first-time registration).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "sim/workspace.h"
#include "util/stats.h"

namespace dynet::sim {

class BatchRunner;

/// Dense handle for one named metric; stable for the runner's lifetime.
using MetricId = std::size_t;

/// Per-metric summaries of one run, each filled in trial order.
struct TrialSummary {
  std::map<std::string, util::Summary> metrics;
};

/// Per-trial view handed to the trial body.  set() records one scalar for
/// this trial; recording the same metric twice keeps the last value (maps
/// behaved the same way via operator[]).
class TrialRecorder {
 public:
  /// Resolves (interning on first use) a metric name.  Prefer resolving
  /// once via BatchRunner::metricId before the run and passing MetricIds
  /// into the body; this overload exists for convenience and migration.
  MetricId metric(const std::string& name);

  void set(MetricId id, double value);
  void set(const std::string& name, double value) { set(metric(name), value); }

 private:
  friend class BatchRunner;
  TrialRecorder(BatchRunner* runner, std::size_t trial)
      : runner_(runner), trial_(trial) {}

  BatchRunner* runner_;
  std::size_t trial_;
};

/// One trial: build and run whatever the experiment needs, using `ws` for
/// engine scratch (pass it to the Engine constructor), and record scalar
/// metrics into `rec`.
using BatchTrialFn =
    std::function<void(std::uint64_t seed, EngineWorkspace& ws,
                       TrialRecorder& rec)>;

struct BatchOptions {
  /// 0 = the process-wide util::ThreadPool::shared() (respects the
  /// DYNET_THREADS env override); 1 = run every trial inline on the
  /// calling thread (sequential, useful for tests and for bodies that
  /// attach a MetricsSink); k > 1 = a dedicated pool of k threads.
  unsigned threads = 0;
};

/// Raw per-trial samples of one run, in trial order (trials that did not
/// set a metric contribute no sample for it — matching how TrialSummary
/// merges).  Campaign shards serialize these so a merged report can redo
/// percentile math over the union of shards instead of averaging averages.
struct TrialSamples {
  std::map<std::string, std::vector<double>> metrics;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Interns `name`, returning its dense id.  Idempotent; callable before,
  /// between, or (from trial bodies, via TrialRecorder) during runs.
  MetricId metricId(const std::string& name);

  /// Runs body(seed_i, ws, rec) for `trials` seeds derived from base_seed
  /// and merges the recorded metrics in trial order.  A runner may be
  /// reused for several runs; interned MetricIds stay valid.  When
  /// `samples` is non-null it receives the raw per-trial values behind the
  /// summary (same trial order, so identical across thread counts).
  TrialSummary run(int trials, std::uint64_t base_seed,
                   const BatchTrialFn& body, TrialSamples* samples = nullptr);

 private:
  friend class TrialRecorder;

  struct Column {
    std::string name;
    std::vector<double> values;  // [trial]
    std::vector<char> present;   // [trial]; 0 = metric not set this trial
  };

  void record(std::size_t trial, MetricId id, double value);
  EngineWorkspace* acquireWorkspace();
  void releaseWorkspace(EngineWorkspace* ws);
  /// Resets every column for a run of `trials` trials.
  void beginRun(std::size_t trials);
  /// Merges recorded columns in trial order into a TrialSummary (and
  /// `samples` when non-null).
  TrialSummary mergeSummary(TrialSamples* samples);

  BatchOptions options_;

  // Guards the schema and the columns_ vector layout; individual slots are
  // written under shared ownership (distinct trials, distinct indices).
  std::shared_mutex mu_;
  std::map<std::string, MetricId> schema_;
  std::vector<std::unique_ptr<Column>> columns_;
  std::size_t trials_ = 0;  // current run's trial count (slot sizing)

  std::mutex ws_mu_;
  std::vector<std::unique_ptr<EngineWorkspace>> workspaces_;
  std::vector<EngineWorkspace*> free_workspaces_;
};

}  // namespace dynet::sim
