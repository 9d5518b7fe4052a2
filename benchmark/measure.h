// Measurement helpers shared by the benchmark workloads: clocks, order
// statistics, process memory, the environment stamp, the output digest,
// and the traced-run plumbing — a timing adversary decorator and a
// round-phase ledger built from the spans the engine already emits.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_injector.h"
#include "obs/sink.h"
#include "sim/adversary.h"
#include "sim/engine.h"

namespace dynet::bench {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0);

/// util::Summary's linear-interpolation percentile (q in [0, 1]); 0 when
/// `values` is empty.
double quantile(const std::vector<double>& values, double q);

/// getrusage(RUSAGE_SELF).ru_maxrss in MiB.
double peakRssMb();

/// Compiler, build type, CPU model, nproc, the filesystem type of
/// `work_dir` and the commit in DYNET_BENCH_COMMIT, as a JSON object.
std::string environmentJson(const std::string& work_dir);

/// 64-bit FNV-1a over a sequence of values (little-endian bytes, chained
/// through dataset::fnv1a64): the output digest.
class Digest {
 public:
  void add(std::uint64_t v);
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Timing of the calls a TimedAdversary forwards.  Owned by the caller so
/// it outlives the engine that owns the decorator.
struct AdversaryTally {
  double total_us = 0;
  double first_call_ms = 0;  // round 1: the initial build, or a trace seek
  std::uint64_t edges_changed = 0;
};

/// Forwarding adversary that times the wrapped adversary's topology calls
/// and tallies the delta sizes it reports.
class TimedAdversary : public sim::Adversary {
 public:
  TimedAdversary(std::unique_ptr<sim::Adversary> inner, AdversaryTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  net::GraphPtr topology(sim::Round round,
                         const sim::RoundObservation& obs) override;
  bool topologyUpdate(sim::Round round, const sim::RoundObservation& obs,
                      const net::GraphPtr& prev,
                      sim::TopologyUpdate& out) override;
  sim::NodeId numNodes() const override { return inner_->numNodes(); }

 private:
  void record(sim::Round round, double us);

  std::unique_ptr<sim::Adversary> inner_;
  AdversaryTally* tally_;
};

/// Round-phase ledger accumulated over traced engine runs.  Phase times
/// come from the engine's own spans; each Engine::step is also timed from
/// outside on the trace clock.  Observe emits no span: its share is the
/// outside-timed step minus the four spans.  As a check on that
/// accounting, the spans plus the measured tail of each step after its
/// delivery span closes must cover the outside-timed step
/// (spanCoverage() == 1 up to step()'s own prologue).
struct PhaseLedger {
  double step_us = 0;
  double fault_us = 0;
  double compute_us = 0;
  double adversary_us = 0;
  double delivery_us = 0;
  double tail_us = 0;
  double decorator_us = 0;
  std::vector<double> step_us_samples;
  std::vector<double> ctor_us_samples;
  std::vector<double> seek_ms_samples;
  std::uint64_t rounds = 0;
  std::uint64_t node_rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t edges_changed = 0;
  std::uint64_t delta_rounds = 0;
  std::uint64_t cold_warms = 0;
  std::uint64_t runs = 0;
  std::uint64_t soa_runs = 0;

  double spanCoverage() const;
  /// The sim, adversary, net and protocols per-layer metrics.
  void report(std::map<std::string, double>& out) const;
};

/// One traced engine run in progress: a fresh sink + trace writer (so span
/// memory stays bounded per run) and the outside timing of every step.
class TracedRun {
 public:
  TracedRun() { sink_.trace = &trace_; }
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  obs::MetricsSink* sink() { return &sink_; }
  /// Wraps `adversary` so its calls are timed into this run's tally.
  std::unique_ptr<sim::Adversary> wrap(std::unique_ptr<sim::Adversary> adversary);
  /// Runs one step; returns its duration in microseconds.
  double timedStep(sim::Engine& engine);
  /// Folds the finished run into `ledger`; writes its Chrome trace when
  /// `chrome_trace_path` is non-empty.
  void finish(const sim::Engine& engine, double ctor_us, PhaseLedger& ledger,
              const std::string& chrome_trace_path) const;

 private:
  obs::TraceWriter trace_;
  obs::MetricsSink sink_;
  AdversaryTally tally_;
  std::vector<double> step_end_us_;
  std::vector<double> step_us_;
};

/// What one op hands to the engine.
struct EngineSpec {
  std::unique_ptr<sim::ProcessFactory> factory;
  std::unique_ptr<sim::Adversary> adversary;
  sim::EngineConfig config;
  std::uint64_t seed = 0;
  std::shared_ptr<const faults::FaultInjector> injector;  // may be null
};

/// What the gates and the digest read back from a finished run.
struct RunSummary {
  double ms = 0;  // make + construct + run: the op's latency
  sim::RunResult result;
  std::vector<std::uint64_t> outputs;
  std::uint64_t state_digest = 0;
};

/// Times `make` (factory/adversary construction), Engine construction and
/// the run to completion.  Untraced runs call Engine::run; with a ledger
/// the run steps under a TracedRun and is folded into it.
RunSummary runEngine(const std::function<EngineSpec()>& make,
                     PhaseLedger* ledger,
                     const std::string& chrome_trace_path = "");

}  // namespace dynet::bench
