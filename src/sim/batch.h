// Parallel Monte Carlo trial runner.
//
// Runs `trials` independent executions (distinct seeds) of an experiment
// and aggregates per-trial scalar metrics — benches average over coin
// flips this way, matching the paper's average-coin-flip complexity
// definition.  Each trial builds whatever engines it needs (an Engine owns
// its scratch, sim/workspace.h) and records its metrics by name into its
// own map; the runner sizes one map per trial before the run, so trials on
// different threads never share a record.
//
// Determinism contract: trial i always runs with seed
// hashCombine(base_seed, i), and the per-trial maps are merged in trial
// order, so the resulting TrialSummary is identical to the sequential
// per-trial loop regardless of thread count — pinned by
// tests/batch_runner_test.cpp.
//
// Thread-safety: run() may be called from one thread at a time per runner.
// A trial body that throws makes run() rethrow the first exception once
// every started trial has finished; the runner stays usable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/stats.h"

namespace dynet::sim {

class BatchRunner;

/// Per-metric summaries of one run, each filled in trial order.
struct TrialSummary {
  std::map<std::string, util::Summary> metrics;
};

/// Per-trial view handed to the trial body.  set() records one scalar for
/// this trial; recording the same metric twice keeps the last value.
class TrialRecorder {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }

 private:
  friend class BatchRunner;
  explicit TrialRecorder(std::map<std::string, double>& metrics)
      : metrics_(metrics) {}

  std::map<std::string, double>& metrics_;
};

/// One trial: build and run whatever the experiment needs with `seed`, and
/// record scalar metrics into `rec`.
using BatchTrialFn =
    std::function<void(std::uint64_t seed, TrialRecorder& rec)>;

struct BatchOptions {
  /// 0 = the process-wide util::ThreadPool::shared() (respects the
  /// DYNET_THREADS env override); 1 = run every trial inline on the
  /// calling thread (sequential, useful for tests and for bodies that
  /// attach a MetricsSink).  Any other value is a CheckError: trials share
  /// the one pool that bounds the process's threads.
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
  explicit BatchRunner(BatchOptions options = {}) : options_(options) {}

  /// Runs body(seed_i, rec) for `trials` seeds derived from base_seed and
  /// merges the recorded metrics in trial order.  When `samples` is
  /// non-null it receives the raw per-trial values behind the summary
  /// (same trial order, so identical across thread counts).
  TrialSummary run(int trials, std::uint64_t base_seed,
                   const BatchTrialFn& body, TrialSamples* samples = nullptr);

 private:
  BatchOptions options_;
};

}  // namespace dynet::sim
