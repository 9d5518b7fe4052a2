// The round engine's phase pipeline.
//
// One simulated round is a fixed sequence of named phase units, each a
// small object that reads and writes a shared RoundContext:
//
//   FaultPhase     apply scheduled restarts/crashes, build the live mask
//   ComputePhase   flip coins, every live node decides its Action
//   AdversaryPhase adversary fixes (and the engine checks) the topology
//   DeliveryPhase  deliver sender messages, in ascending sender order,
//                  through the fault filter
//   ObservePhase   round accounting: done rounds, per-round series, sink
//
// The order is the model's round structure (paper §2, docs/MODEL.md): the
// adversary acts *after* the coins flip, so AdversaryPhase necessarily runs
// after ComputePhase.  Splitting the former monolithic Engine::step() this
// way keeps cross-cutting concerns (faults, observability, trace recording)
// out of each other's code paths and gives future layers — async delivery,
// sharded topologies, alternative accounting — a seam to slot into without
// touching every phase.  The pipeline is behaviour-preserving by
// construction and pinned byte-identical by tests/batch_runner_test.cpp.
//
// RoundContext contract (docs/ARCHITECTURE.md):
//   * Wiring fields (processes, adversary, config, injector, workspace,
//     result, recorders, obs) are set once by the engine and are stable for
//     the whole run; phases never reseat them.
//   * Per-round fields (round, faulty, topology, *_before, span_start) are
//     reset by Engine::step() before the pipeline runs; a phase may only
//     rely on per-round outputs of phases that precede it (e.g. topology is
//     null until AdversaryPhase ran).
//   * Phases communicate exclusively through the context — no phase holds
//     mutable state of its own, so one pipeline instance could be shared by
//     many engines (the engine still owns a private copy for simplicity).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/diameter.h"
#include "net/graph.h"
#include "sim/engine.h"
#include "sim/process.h"
#include "sim/workspace.h"

namespace dynet::faults {
class FaultInjector;
}  // namespace dynet::faults

namespace dynet::obs {
struct MetricsSink;
class TraceWriter;
struct Counter;
class Histogram;
class Series;
}  // namespace dynet::obs

namespace dynet::sim {

// Registry handles resolved once at engine construction so the per-round
// recording path never does a string lookup.  Existence of this struct ==
// sink attached (Engine::obs_ is null otherwise).
struct EngineObs {
  obs::MetricsSink* sink;
  obs::TraceWriter* trace;  // may be null (metrics without spans)
  obs::Counter* messages_sent;
  obs::Counter* bits_sent;
  obs::Counter* messages_dropped;
  obs::Counter* messages_corrupted;
  obs::Counter* crashes;
  obs::Counter* restarts;
  obs::Histogram* bits_per_send;
  obs::Series* round_bits;
  obs::Series* round_messages;
  // Incremental-topology accounting (reserved topology/ prefix; with the
  // soa// gauges, the only metrics allowed to differ between engine
  // paths — docs/OBSERVABILITY.md).
  obs::Counter* topo_incremental;
  obs::Counter* topo_full;

  explicit EngineObs(obs::MetricsSink* s);
};

/// Everything one round's phases share.  Built by Engine::step().
struct RoundContext {
  // --- Wiring: constant across the run, set up by the engine. ---
  std::vector<std::unique_ptr<Process>>* processes = nullptr;
  /// Structure-of-arrays execution (sim/soa.h); null on the object path.
  /// When set, `processes` points at an empty vector and the compute /
  /// delivery / observe phases drive the model instead.
  SoAModel* soa = nullptr;
  Adversary* adversary = nullptr;
  const EngineConfig* config = nullptr;
  const faults::FaultInjector* injector = nullptr;  // null in clean runs
  EngineWorkspace* ws = nullptr;
  RunResult* result = nullptr;
  net::TopologySeq* topologies = nullptr;  // record_topologies target
  std::vector<std::vector<Action>>* action_trace = nullptr;  // record_actions
  EngineObs* obs = nullptr;  // null without a sink
  std::uint64_t seed = 0;
  int budget_bits = 0;
  NodeId n = 0;

  // --- Per-round: reset by the engine, written by the phases. ---
  Round round = 0;
  bool faulty = false;  // injector attached (phases branch on this once)
  net::GraphPtr topology;  // set by AdversaryPhase
  std::uint64_t bits_before = 0;      // result->bits_sent at round start
  std::uint64_t messages_before = 0;  // result->messages_sent at round start
  double span_start = 0.0;  // last trace-span boundary (tracer runs only)
};

/// One named stage of the round pipeline.  Stateless: all inputs and
/// outputs live in the RoundContext.
class PhaseUnit {
 public:
  virtual ~PhaseUnit() = default;
  virtual const char* name() const = 0;
  virtual void run(RoundContext& ctx) = 0;
};

class FaultPhase : public PhaseUnit {
 public:
  const char* name() const override { return "fault"; }
  void run(RoundContext& ctx) override;
};

class ComputePhase : public PhaseUnit {
 public:
  const char* name() const override { return "compute"; }
  void run(RoundContext& ctx) override;
};

class AdversaryPhase : public PhaseUnit {
 public:
  const char* name() const override { return "adversary"; }
  void run(RoundContext& ctx) override;
};

class DeliveryPhase : public PhaseUnit {
 public:
  const char* name() const override { return "delivery"; }
  void run(RoundContext& ctx) override;
};

class ObservePhase : public PhaseUnit {
 public:
  const char* name() const override { return "observe"; }
  void run(RoundContext& ctx) override;
};

/// The model's round structure: Fault → Compute → Adversary → Delivery →
/// Observe.  Engines build one of these at construction.
std::vector<std::unique_ptr<PhaseUnit>> makeDefaultPipeline();

/// True when every live process reports done(); with an injector, crashed
/// nodes are exempt (they cannot hold the run open).
bool allLiveDone(const std::vector<std::unique_ptr<Process>>& processes,
                 const faults::FaultInjector* injector, Round round);

/// SoA-path variant of the same predicate.
bool allLiveDone(const SoAModel& model, NodeId n,
                 const faults::FaultInjector* injector, Round round);

}  // namespace dynet::sim
