// Per-run scratch storage for the round engine.
//
// Every Engine needs a handful of O(N)-sized scratch vectors (the action
// vector being built this round, delivery inboxes, fault liveness masks).
// The engine creates its EngineWorkspace on construction and it dies with
// the engine: nothing in it outlives a run, so no trial can see another
// trial's data (docs/ARCHITECTURE.md).  All accesses happen on the thread
// driving the engine; nothing in the workspace is synchronized.
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.h"
#include "sim/message.h"
#include "sim/process.h"

namespace dynet::sim {

/// Drop/corrupt counts of one delivery loop, filled by filterDelivery and folded in by addFaultTally
/// (sim/soa_exec.h).
struct FaultTally {
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
};

struct EngineWorkspace {
  /// This round's decided actions, [node].  Sized at construction,
  /// rewritten every round.
  std::vector<Action> actions;
  /// This round's send column, [node]: 1 iff actions[v].send.  Single
  /// writer rule: written only where an Action is written (every compute
  /// loop; a crashed node's 0 next to its Action{}), so every delivery loop
  /// probes these n bytes instead of striding the Action array.
  std::vector<char> sending;
  /// Object-path delivery scratch: the messages handed to the current
  /// receiver's onDeliver, in delivery order.
  std::vector<Message> inbox;
  /// Fault scratch: this round's live mask, filled with ones when a fault
  /// injector is attached (empty in clean runs).
  std::vector<char> alive;
  /// Fault scratch: down transitions already counted (empty in clean runs).
  std::vector<char> crash_counted;
  /// Per-node CoinStream key prefixes hashCombine(seed, v), computed once
  /// at construction.
  std::vector<std::uint64_t> coin_keys;
  /// Topology of the previous round, handed to Adversary::topologyUpdate
  /// so delta-native adversaries can patch instead of rebuild.  Null in
  /// round 1.
  net::GraphPtr prev_topology;
  /// This round's sending nodes in ascending order, collected by the
  /// fault-free SoA compute walk so delivery can iterate senders (push
  /// model) instead of scanning every node (sim/soa_exec.h).  Unused in
  /// faulty rounds.
  std::vector<NodeId> soa_senders;
  /// Fault-free SoA rounds whose delivery took the receiver-major pull
  /// walk (sim/soa_exec.h); exported as the soa//pull_rounds gauge.
  std::uint64_t soa_pull_rounds = 0;
};

}  // namespace dynet::sim
