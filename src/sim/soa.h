// Structure-of-arrays protocol state.
//
// The object path gives every node a heap-allocated Process; at n = 10^5+
// the per-node virtual dispatch and pointer-chasing layout dominate the
// round loop (allocation is not the hot path — data layout is).  The SoA
// path keeps protocol state in flat per-field arrays instead: one SoAModel
// per engine owns its columns like `has_token[n]` as plain std::vector
// members, sized and initialized by ProcessFactory::createSoA.
//
// Contract (docs/ARCHITECTURE.md "SoA state store"):
//   * A protocol opts in by overriding ProcessFactory::createSoA; flood
//     (protocols/flood.cpp), the protocol of the large-n benchmark
//     workload, is the only one that does.  A model is a second copy of
//     its protocol that every evidence layer below must hold
//     byte-identical, so a protocol that no benchmark workload runs at
//     scale stays on objects.  The engine's factory constructor runs the
//     model whenever the run is neither anonymous nor duplex; the default
//     returns null, which makes it fall back to the object path.  The
//     object path itself is sim::createProcesses plus the process-vector
//     constructor.
//   * The SoA execution of a protocol must be byte-identical to its object
//     execution: same actions, same RunResult, same stateDigest per node,
//     same exported metrics.  tests/soa_state_test.cpp locksteps the two
//     representations round by round; tests/fuzz_diff_test.cpp and the
//     golden corpus pin the full artifact bytes.
//   * Columns are plain vectors indexed by node.  The delivery hooks see a
//     receiver and a message payload, never the sender: the walks' only
//     cross-node read is a sender's Action, which the send-xor-receive
//     model guarantees is not written during the phase — that is what lets
//     delivery walk senders or receivers in either order (sim/soa_exec.h).
//   * The per-node hooks (computeNode, onMessage, afterDeliver) read and
//     write only node v's column entries: from 2 * kNodesPerChunk nodes up
//     the engine runs them as contiguous node-range chunks on several
//     threads at once (sim/soa_exec.h "Node-range chunks"), so a hook that
//     touched another node's entries, or wrote any member shared by all
//     nodes, would race.
//     computeNode returns the bit size of the message node v sends, or
//     kNoSend; the walk accounts the send from that value.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/process.h"

namespace dynet::sim {

struct RoundContext;

/// One protocol's flat-array execution: the SoA counterpart of the whole
/// Process vector.  Created by ProcessFactory::createSoA(n) with every
/// column sized to n and in its round-0 state, driven by the engine's
/// phases.
class SoAModel {
 public:
  virtual ~SoAModel();

  /// computePhase body: fill ctx.ws->actions[v] for every node (crashed
  /// nodes get Action{}).  Implementations call soaComputeAll
  /// (sim/soa_exec.h), which handles the live mask, the node-range chunks,
  /// and send accounting from computeNode's return value.
  virtual void computeAll(RoundContext& ctx) = 0;

  /// deliveryPhase body: deliver sender messages through the fault filter.
  /// Implementations call soaDeliverAll (sim/soa_exec.h), which reproduces
  /// the canonical ascending-sender order, drop/corrupt fates, and
  /// accounting of the object path.
  virtual void deliverAll(RoundContext& ctx) = 0;

  /// Fault restart: node v's state becomes exactly what createSoA gave it
  /// (the SoA analogue of FaultInjector::freshProcess).
  virtual void resetNode(NodeId v) = 0;

  /// The num_nodes-wide done byte column (nonzero == node v is done, the
  /// mirror of Process::done), never null.  observePhase, allLiveDone and
  /// Engine::nodeDone all read it directly.
  virtual const char* doneData() const = 0;

  // Per-node read-side mirror of the rest of the Process API.
  virtual std::uint64_t output(NodeId v) const = 0;
  virtual std::uint64_t stateDigest(NodeId v) const = 0;

  /// Mirror of Process::exportMetrics; must append the same (key, value)
  /// pairs the object path would for node v.
  virtual void exportMetrics(
      NodeId v, std::vector<std::pair<std::string, double>>& out) const = 0;
};

}  // namespace dynet::sim
