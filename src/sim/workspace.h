// Reusable per-run scratch storage for the round engine.
//
// Every Engine needs a handful of O(N)-sized scratch vectors (the action
// vector being built this round, delivery inboxes, fault liveness masks).
// Allocating them per Engine means every Monte Carlo trial pays a fresh set
// of heap allocations; an EngineWorkspace lets a caller that runs many
// engines back to back (sim::BatchRunner, bench loops) allocate once and
// reuse the capacity across trials.
//
// Ownership and thread-affinity rules (docs/ARCHITECTURE.md):
//   * A workspace is bound to at most ONE live Engine at a time, and all
//     accesses happen on the thread driving that engine.  Nothing in the
//     workspace is synchronized.
//   * The engine resets all per-run state on construction; a workspace
//     carries capacity, never data, from one trial into the next.
//   * An Engine constructed without an external workspace owns a private
//     one — single-run callers see no API or behaviour change.
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.h"
#include "sim/message.h"
#include "sim/process.h"
#include "sim/soa.h"

namespace dynet::sim {

/// Drop/corrupt counts of one delivery loop (or one strided worker),
/// filled by filterDelivery and folded in by addFaultTally
/// (sim/soa_exec.h).
struct FaultTally {
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
};

struct EngineWorkspace {
  /// This round's decided actions, [node].  Rebuilt every round.
  std::vector<Action> actions;
  /// This round's send column, [node]: 1 iff actions[v].send.  Single
  /// writer rule: written only where an Action is written (every compute
  /// loop; a crashed node's 0 next to its Action{}), so every delivery loop
  /// probes these n bytes instead of striding the Action array.
  std::vector<char> sending;
  /// Object-path delivery scratch: the messages handed to the current
  /// receiver's onDeliver, in delivery order.
  std::vector<Message> inbox;
  /// Fault scratch: this round's live mask (empty in clean runs).
  std::vector<char> alive;
  /// Fault scratch: down transitions already counted (empty in clean runs).
  std::vector<char> crash_counted;
  /// Per-node CoinStream key prefixes hashCombine(seed, v), computed once
  /// per run by ComputePhase; empty until the first round.
  std::vector<std::uint64_t> coin_keys;
  /// Topology of the previous round, handed to Adversary::topologyUpdate
  /// so delta-native adversaries can patch instead of rebuild.  Null in
  /// round 1 and on the legacy (topology_deltas = false) path.
  net::GraphPtr prev_topology;
  /// Structure-of-arrays protocol state (EngineConfig::soa_state): the
  /// engine's SoAModel binds its per-field columns here so their capacity
  /// is reused across trials like every other workspace vector.
  SoAStore soa;
  /// Per-worker fault tallies for the strided SoA delivery loop
  /// (sim/soa_exec.h); merged into the RunResult after the join.
  std::vector<FaultTally> stride_faults;
  /// This round's sending nodes in ascending order, collected by the serial
  /// SoA compute walk so fault-free delivery can iterate senders (push
  /// model) instead of scanning every node (sim/soa_exec.h).  Empty and
  /// unused on the strided and faulty paths.
  std::vector<NodeId> soa_senders;
  /// Serial fault-free SoA rounds whose delivery took the receiver-major
  /// pull walk (sim/soa_exec.h); exported as the soa//pull_rounds gauge.
  std::uint64_t soa_pull_rounds = 0;

  /// Drops all per-run state but keeps every vector's capacity.  The engine
  /// calls this on construction, so a reused workspace can never leak one
  /// trial's data into the next.
  void reset() {
    actions.clear();
    sending.clear();
    inbox.clear();
    alive.clear();
    crash_counted.clear();
    coin_keys.clear();
    prev_topology = nullptr;
    soa.reset();
    stride_faults.clear();
    soa_senders.clear();
    soa_pull_rounds = 0;
  }
};

}  // namespace dynet::sim
