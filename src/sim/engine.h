// The synchronous round engine.
//
// Executes Processes against an Adversary under the CONGEST constraints:
// send-xor-receive, per-message bit budget, connected per-round topology.
// (EngineConfig::duplex switches delivery to full-duplex broadcast CONGEST
// for the distance-computation suite; off by default.)
// Each round is five phase calls of sim/phase.h (fault → compute →
// adversary → delivery → observe); cross-cutting layers (fault injection,
// observability, trace recording) live in their own phases instead of
// inline special cases.  Optionally records full traces (topologies,
// actions, deliveries derived on demand) for diameter computation and
// reduction cross-validation.
//
// Per-run scratch lives in the engine's own EngineWorkspace
// (sim/workspace.h), created with the engine and destroyed with it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/diameter.h"
#include "net/graph.h"
#include "sim/adversary.h"
#include "sim/process.h"
#include "sim/workspace.h"

namespace dynet::faults {
class FaultInjector;
}  // namespace dynet::faults

namespace dynet::obs {
struct MetricsSink;
}  // namespace dynet::obs

namespace dynet::sim {

struct EngineObs;  // pre-resolved registry handles (sim/phase.h)

/// Message budget used throughout: a fixed constant multiple of log N.
int defaultBudgetBits(NodeId num_nodes);

struct EngineConfig {
  Round max_rounds = 1 << 20;
  /// 0 derives defaultBudgetBits(N).
  int msg_budget_bits = 0;
  /// Check the model's per-round connectivity invariant.  With a
  /// FaultInjector attached whose plan crashes nodes, the invariant covers
  /// the subgraph induced by the *live* nodes (edges through crashed nodes
  /// carry nothing, so demanding full connectivity would be both too strong
  /// and unachievable for the adversary zoo).
  bool check_connectivity = true;
  bool record_topologies = false;
  bool record_actions = false;
  /// Anonymous-network mode (Di Luna–Baldoni, docs/DATASETS.md): the
  /// engine stops exposing node identities through delivery order.  The
  /// canonical ascending-sender inbox is reordered by a deterministic
  /// per-(receiver, round) permutation, and a message's port is its index
  /// in the inbox span onDeliver receives — ports are stable within a
  /// round, unrelated across rounds.  Off (the default) is byte-
  /// identical to pre-anonymous behavior: the flag is never read outside
  /// delivery (pinned by tests/anon_test.cpp).
  /// Anonymous runs force the object process path (SoA models index state
  /// by real node id).
  bool anonymous = false;
  /// Full-duplex broadcast-CONGEST delivery (docs/DIAMETER.md): a sender
  /// also receives its sending neighbors' messages that round, delivered
  /// with sent=true and the same canonical ascending-sender order (and the
  /// same fault fates / anonymous permutation) a pure receiver would see.
  /// The paper's send-xor-receive model stays the default (false), byte-
  /// identical to pre-duplex behavior: the flag is only read inside
  /// delivery.  The distance-computation protocols (diam_*) require this
  /// mode — their O(n)-round pipelined BFS schedules assume standard
  /// CONGEST, which is also where the ACH/BK lower bounds are stated.
  /// Duplex runs force the object process path (the SoA delivery loops
  /// implement send-xor-receive only).
  bool duplex = false;
  /// Stop as soon as every process reports done().  With a FaultInjector,
  /// crashed nodes are exempt: the run stops when every live node is done.
  bool stop_when_all_done = true;
  /// Optional observability sink (not owned; must outlive the engine).
  /// Null (the default) disables the layer entirely — the hot path pays one
  /// branch and the run is byte-identical to one without a sink (pinned by
  /// tests/obs_test.cpp).  With a sink, the engine records the named
  /// metrics of docs/OBSERVABILITY.md and, when sink->trace is set, one
  /// span per round phase.  The registry is not thread-safe: attach a sink
  /// to one engine at a time.
  obs::MetricsSink* metrics = nullptr;
};

struct RunResult {
  Round rounds_executed = 0;
  bool all_done = false;
  /// First round at whose end every node was done; -1 if never.
  Round all_done_round = -1;
  /// Per node: first round at whose end it was done; -1 if never.
  std::vector<Round> done_round;
  std::uint64_t messages_sent = 0;
  std::uint64_t bits_sent = 0;
  /// Per node: total payload bits sent (load/fairness analysis).
  std::vector<std::uint64_t> bits_per_node;
  /// Largest entry of bits_per_node, maintained per round — the per-node
  /// load claims of EXPERIMENTS.md without a record_actions replay.
  std::uint64_t max_bits_per_node = 0;
  /// Per round (index = round - 1): payload bits sent in that round.
  std::vector<std::uint64_t> bits_per_round;

  // Fault accounting (all zero without a FaultInjector or with a zero plan).
  /// Crash-stop events (a node that restarts and crashes again counts once
  /// per down transition).
  std::uint64_t crashes = 0;
  /// State-reset restarts of previously crashed nodes.
  std::uint64_t restarts = 0;
  /// Individual deliveries lost to the drop schedule.
  std::uint64_t messages_dropped = 0;
  /// Individual deliveries corrupted (mangled or detect-and-dropped,
  /// depending on FaultConfig::deliver_corrupted).
  std::uint64_t messages_corrupted = 0;
};

/// factory.create(v, num_nodes) for every node, in ascending order: the
/// object path's process vector.  The factory constructor falls back to it;
/// callers that need Process objects (or the object path as a reference)
/// pass it to the process-vector constructor.
std::vector<std::unique_ptr<Process>> createProcesses(
    const ProcessFactory& factory, NodeId num_nodes);

class Engine {
 public:
  /// `seed` feeds the per-(node, round) coin streams.  The object path:
  /// every node is its Process.
  Engine(std::vector<std::unique_ptr<Process>> processes,
         std::unique_ptr<Adversary> adversary, EngineConfig config,
         std::uint64_t seed);
  /// Factory form: node count comes from the adversary.  When the factory
  /// overrides createSoA and the run is neither anonymous nor duplex, the
  /// run uses the structure-of-arrays path; otherwise it runs on
  /// createProcesses(factory, n), the object path.  Both paths are
  /// byte-identical by contract.
  Engine(const ProcessFactory& factory, std::unique_ptr<Adversary> adversary,
         EngineConfig config, std::uint64_t seed);
  // Out-of-line: EngineObs / SoAModel are incomplete here.
  ~Engine();
  // Not movable: every creation site either constructs in place or returns
  // a prvalue (guaranteed elision), so no move is ever needed.
  Engine(Engine&&) = delete;
  Engine& operator=(Engine&&) = delete;

  /// Attaches a fault-injection hook; must be called before the first
  /// step().  A null injector (the default) reproduces the clean model
  /// exactly; so does an injector whose plan is all-zero.
  void setFaultInjector(std::shared_ptr<const faults::FaultInjector> injector);

  /// Runs rounds until max_rounds or all done.
  RunResult run();

  /// Executes exactly one round (the five phases); returns false if
  /// max_rounds reached.
  bool step();

  Round currentRound() const { return round_; }
  NodeId numNodes() const { return n_; }
  /// Object path only (checked): SoA runs have no Process objects.  Callers
  /// that must work on both paths use nodeDone/nodeOutput/stateDigest.
  const Process& process(NodeId v) const;
  /// True when this run executes on the structure-of-arrays path.
  bool soaActive() const { return soa_ != nullptr; }
  // Per-node state reads working on both representations.
  bool nodeDone(NodeId v) const;
  std::uint64_t nodeOutput(NodeId v) const;
  std::uint64_t stateDigest(NodeId v) const;
  bool allDone() const;

  /// Recorded per-round topologies (config.record_topologies); index i holds
  /// round i+1, matching net::TopologySeq conventions.
  const net::TopologySeq& topologies() const { return topologies_; }

  /// Recorded actions (config.record_actions); [round-1][node].
  const std::vector<std::vector<Action>>& actionTrace() const { return actions_; }

  const RunResult& result() const { return result_; }
  int budgetBits() const { return budget_bits_; }

  /// Writes the end-of-run metrics (final gauges, per-node series, each
  /// process's exportMetrics scalars) into the attached sink.  Idempotent;
  /// run() calls it automatically — call it yourself only when driving the
  /// engine through step() directly.  No-op without a sink.
  void finalizeMetrics();

 private:
  /// Shared tail of both constructors; requires n_, processes_/soa_,
  /// adversary_, config_, seed_ to be settled.
  void init();
  /// Cuts an SoA run into its node-range chunks (sim/soa_exec.h).
  void initChunks();

  std::vector<std::unique_ptr<Process>> processes_;  // empty on the SoA path
  std::unique_ptr<SoAModel> soa_;  // null on the object path
  std::unique_ptr<Adversary> adversary_;
  EngineConfig config_;
  std::uint64_t seed_;
  NodeId n_ = 0;
  int budget_bits_;
  Round round_ = 0;
  std::shared_ptr<const faults::FaultInjector> injector_;
  std::unique_ptr<EngineObs> obs_;  // null unless config_.metrics is set

  EngineWorkspace ws_;  // per-run scratch

  net::TopologySeq topologies_;
  std::vector<std::vector<Action>> actions_;
  RunResult result_;
};

}  // namespace dynet::sim
