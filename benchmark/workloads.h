// The five benchmark workloads.  Each drives the library through its
// public entry points (campaign::makeProtocolFactory / makeAdversary, the
// sim::Engine constructors and step/run, dataset::loadTrace and friends,
// campaign::runCampaign / writeReport, net::staticDiameter) and times the
// layers from outside; benchmark/README.md says why each one exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"

namespace dynet::bench {

struct Options {
  std::uint64_t seed = 1;
  /// Small sizes with the same gates, for quick iteration.
  bool smoke = false;
  /// Scratch directory for generated traces and campaign checkpoints.
  std::string work_dir;
};

/// State of the traced ops of a run.
struct Tracing {
  PhaseLedger ledger;
  /// Chrome trace destination for the first traced engine run.
  std::string chrome_trace_path;

  std::string takeChromeTracePath() {
    return std::exchange(chrome_trace_path, std::string());
  }
};

struct OpResult {
  double ms = 0;  // the op's latency; untimed gate checks are excluded
  double node_rounds = 0;
  /// FNV-1a of the op's rounds, messages, bits and final state digest.
  std::uint64_t digest = 0;
  /// Why the op failed its gate; empty when it passed.
  std::string failure;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything a user pays before the first result: input ingest,
  /// reference results, a warm-up op.  Called several times per run;
  /// returns the seconds of the timed part.  Problems found on the
  /// reference results are appended to `setup_failures`.
  virtual double setup() = 0;
  /// Runs op `i` (a pure function of the seed and i).  `tracing` is null
  /// on untraced ops.
  virtual OpResult op(std::uint64_t i, Tracing* tracing) = 0;
  /// Ops in one balanced pass over the workload's mix; runs stop on a pass
  /// boundary.  Op i is of class i % passLength(): ops of one class do the
  /// same kind of work, and the throughput metrics compare their costs.
  virtual std::uint64_t passLength() const = 0;
  /// Layer metrics the shared PhaseLedger does not cover.
  virtual void layerMetrics(std::map<std::string, double>& out) const {
    (void)out;
  }

  std::vector<std::string> setup_failures;
  /// Facts about the workload's outputs that a reader needs to trust the
  /// timings (such as the share of campaign trials that finished), printed
  /// and stored in the results file.
  std::map<std::string, double> facts;
};

/// Throws util::CheckError on an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Options& options);

}  // namespace dynet::bench
