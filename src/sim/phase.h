// The round engine's five phases.
//
// One simulated round is five calls, each a function that reads and writes
// a shared RoundContext:
//
//   faultPhase      apply scheduled restarts/crashes, build the live mask
//   computePhase    flip coins, every live node decides its Action
//   adversaryPhase  adversary fixes (and the engine checks) the topology
//   deliveryPhase   deliver sender messages, in ascending sender order,
//                   through the fault filter
//   observePhase    round accounting: done rounds, per-round series, sink
//
// Engine::step() calls them in this order, which is the model's round
// structure (paper §2, docs/MODEL.md): the adversary acts *after* the coins
// flip, so adversaryPhase necessarily runs after computePhase.  Keeping
// each phase in its own function keeps cross-cutting concerns (faults,
// observability) out of each other's code paths.  Trace recording is the
// engine's: Engine::step() keeps the round's topology and actions between
// adversaryPhase and deliveryPhase.
//
// RoundContext contract (docs/ARCHITECTURE.md):
//   * Wiring fields (processes, adversary, config, injector, workspace,
//     result, obs) point at the engine's members and are stable
//     for the whole run; phases never reseat them.
//   * Per-round fields (round, faulty, topology, *_before, span_start) are
//     reset by Engine::step() before the phases run; a phase may only rely
//     on per-round outputs of phases that precede it (e.g. topology is
//     null until adversaryPhase ran).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/diameter.h"
#include "net/graph.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/process.h"
#include "sim/workspace.h"

namespace dynet::faults {
class FaultInjector;
}  // namespace dynet::faults

namespace dynet::obs {
struct MetricsSink;
class TraceWriter;
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
  /// Per-chunk bits_per_send observations of a run with more than one
  /// node-range chunk (SoAChunk::bits_per_send), merged into
  /// bits_per_send after every compute walk; empty otherwise.
  std::vector<obs::Histogram> chunk_bits_per_send;

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
  EngineObs* obs = nullptr;  // null without a sink
  std::uint64_t seed = 0;
  int budget_bits = 0;
  NodeId n = 0;

  // --- Per-round: reset by the engine, written by the phases. ---
  Round round = 0;
  bool faulty = false;  // injector attached (phases branch on this once)
  net::GraphPtr topology;  // set by adversaryPhase
  std::uint64_t bits_before = 0;      // result->bits_sent at round start
  std::uint64_t messages_before = 0;  // result->messages_sent at round start
  double span_start = 0.0;  // last trace-span boundary (tracer runs only)
};

// The five phases, in the order Engine::step() calls them.
void faultPhase(RoundContext& ctx);
void computePhase(RoundContext& ctx);
void adversaryPhase(RoundContext& ctx);
void deliveryPhase(RoundContext& ctx);
void observePhase(RoundContext& ctx);

/// True when every live process reports done(); with an injector, crashed
/// nodes are exempt (they cannot hold the run open).
bool allLiveDone(const std::vector<std::unique_ptr<Process>>& processes,
                 const faults::FaultInjector* injector, Round round);

/// SoA-path variant of the same predicate.
bool allLiveDone(const SoAModel& model, NodeId n,
                 const faults::FaultInjector* injector, Round round);

}  // namespace dynet::sim
