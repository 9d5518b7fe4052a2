// Per-run scratch storage for the round engine.
//
// Every Engine needs a handful of O(N)-sized scratch vectors (the action
// vector being built this round, delivery inboxes, fault liveness masks).
// The engine creates its EngineWorkspace on construction and it dies with
// the engine: nothing in it outlives a run, so no trial can see another
// trial's data (docs/ARCHITECTURE.md).  Nothing in the workspace is
// synchronized.  Everything outside an SoA run's node-range chunks happens
// on the thread driving the engine; inside a chunked walk, chunk c writes
// only its own node range of every per-node column and its own SoAChunk
// (sim/soa_exec.h "Node-range chunks").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/graph.h"
#include "sim/message.h"
#include "sim/process.h"

namespace dynet::obs {
class Histogram;
}  // namespace dynet::obs

namespace dynet::sim {

/// Drop/corrupt counts of one delivery loop, filled by filterDelivery and
/// folded in by addFaultTally (sim/soa_exec.h).
struct FaultTally {
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
};

/// Send-side totals of one compute walk over a node range, filled by
/// tallySend and folded into the RunResult by foldSends (sim/soa_exec.h).
struct SendTally {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  /// Largest bits_per_node entry a send of this walk raised.
  std::uint64_t max_bits_per_node = 0;
  /// bits_per_send observations not yet made (with a sink): the latest
  /// `run` sends, all of `run_bits` bits.  A walk observes one value per
  /// run of equal sizes instead of one per send (flushSendSizes).
  int run_bits = 0;
  std::uint64_t run = 0;
};

/// One node range [begin, end) of an SoA run and what its walks produced
/// this round (sim/soa_exec.h "Node-range chunks").  A walk keeps its
/// tallies in locals and stores them here once, at its end; cache-line
/// alignment keeps those stores off the lines other chunks read.
struct alignas(64) SoAChunk {
  NodeId begin = 0;
  NodeId end = 0;
  /// The compute walk's accounting.
  SendTally sends;
  /// Fault-free compute walk: the range's senders, ascending, are
  /// EngineWorkspace::soa_senders[begin, begin + num_senders).
  std::size_t num_senders = 0;
  /// The pull walk's drop/corrupt counts.
  FaultTally faults;
  /// Where the range's bits_per_send observations land: the registry's
  /// histogram when the run has one chunk, else the chunk's own, merged
  /// into the registry's after each compute walk; null without a sink.
  obs::Histogram* bits_per_send = nullptr;
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
  /// This round's sending nodes, collected by the fault-free SoA compute
  /// walk so delivery can iterate senders (push model) instead of scanning
  /// every node (sim/soa_exec.h).  Sized n for SoA runs: each chunk writes
  /// its ascending run from its own begin, so the runs in chunk order are
  /// the round's senders in ascending order.  Unused in faulty rounds.
  std::vector<NodeId> soa_senders;
  /// The SoA run's node-range chunks, in node order; empty on the object
  /// path.  Their number is fixed at engine construction.
  std::vector<SoAChunk> chunks;
  /// Fault-free SoA rounds whose delivery took the receiver-major pull
  /// walk (sim/soa_exec.h); exported as the soa//pull_rounds gauge.
  std::uint64_t soa_pull_rounds = 0;
};

}  // namespace dynet::sim
