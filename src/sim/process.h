// Protocol interface: one Process per node.
//
// The model's round structure (paper §2):
//   1. coins flip (CoinStream handed to onRound),
//   2. the node decides to SEND one message or to RECEIVE (Action),
//   3. the adversary fixes this round's topology (it may observe actions,
//      since they are a deterministic function of state and coins),
//   4. receivers get the messages of all sending neighbors (onDeliver).
//
// Processes must be deterministic state machines: the next state depends
// only on (current state, coins, delivered messages).  This is what makes
// the two-party reduction able to re-derive node behaviour from public
// coins, and what makes traces reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "util/rng.h"

namespace dynet::sim {

class SoAModel;  // structure-of-arrays protocol execution (sim/soa.h)

using NodeId = std::int32_t;
using Round = std::int32_t;

struct Action {
  bool send = false;
  Message msg;  // meaningful only when send == true

  friend bool operator==(const Action& x, const Action& y) {
    return x.send == y.send && (!x.send || x.msg == y.msg);
  }
};

class Process {
 public:
  virtual ~Process() = default;

  /// Decides this round's action.  `round` is 1-based.
  virtual Action onRound(Round round, util::CoinStream& coins) = 0;

  /// End-of-round delivery.  If the node sent, `received` is empty and
  /// `sent` is true.  A receiving node with no sending neighbor gets an
  /// empty span with `sent` false.  Under EngineConfig::duplex a sender
  /// also receives: `sent` is true AND `received` holds its sending
  /// neighbors' messages.  Messages arrive in ascending sender-id order;
  /// under EngineConfig::anonymous they arrive permuted, and a message's
  /// index in `received` is its port.  The span is engine scratch, valid
  /// only until onDeliver returns.
  virtual void onDeliver(Round round, bool sent,
                         std::span<const Message> received) = 0;

  /// Local termination: the node has produced its output.
  virtual bool done() const { return false; }

  /// The node's output (protocol-specific encoding); valid once done().
  virtual std::uint64_t output() const { return 0; }

  /// Optional structural digest of the full state, for cross-validating the
  /// two-party simulation against the reference execution.
  virtual std::uint64_t stateDigest() const { return 0; }

  /// Optional named scalar metrics describing the process's current state
  /// (retransmissions, lock attempts, token arrival round, ...).  With an
  /// obs::MetricsSink attached, Engine::finalizeMetrics collects each key k
  /// into the per-node series `node/<k>` (docs/OBSERVABILITY.md catalogs
  /// the names protocols export).  Appending to `out` keeps sim free of an
  /// obs dependency.
  virtual void exportMetrics(
      std::vector<std::pair<std::string, double>>& out) const {
    (void)out;
  }
};

/// Creates the Process for a given node; used by the engine, the reference
/// execution, and the Alice/Bob party simulators, guaranteeing all three
/// construct identical state machines.
class ProcessFactory {
 public:
  virtual ~ProcessFactory() = default;
  virtual std::unique_ptr<Process> create(NodeId node, NodeId num_nodes) const = 0;

  /// Optional structure-of-arrays execution of the whole node vector
  /// (sim/soa.h).  The default — defined in soa.cpp, where SoAModel is
  /// complete — returns null: the engine's factory constructor then
  /// materializes Processes.  An override must produce a model whose
  /// execution is byte-identical to the object path (pinned by
  /// tests/soa_state_test.cpp and the fuzz-diff/golden layers).
  virtual std::unique_ptr<SoAModel> createSoA(NodeId num_nodes) const;
};

}  // namespace dynet::sim
