// Adversary interface: fixes each round's topology.
//
// Per the model, the adversary acts *after* this round's coins are flipped;
// since actions are a deterministic function of state and coins, the engine
// passes the already-decided actions to the adversary.  Oblivious
// adversaries simply ignore them.
#pragma once

#include <memory>
#include <span>
#include <utility>

#include "net/graph.h"
#include "sim/process.h"

namespace dynet::sim {

struct RoundObservation {
  /// Actions every node decided for the current round.
  std::span<const Action> actions;
};

/// Result of the incremental topology protocol (topologyUpdate below).
struct TopologyUpdate {
  net::GraphPtr graph;
  /// True when `graph` was derived from the previous round's topology —
  /// the same GraphPtr reused, or a net::applyDelta patch — rather than
  /// built from scratch.  Feeds the topology/incremental_rounds metric.
  bool is_delta = false;
  // Best-effort delta size (0 for a same-graph reuse); observability only.
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Topology of `round` (1-based).  Must contain exactly numNodes() nodes
  /// and, per the model, be connected (the engine checks).
  virtual net::GraphPtr topology(Round round, const RoundObservation& obs) = 0;

  /// Incremental variant, offered first by the engine every round: fill
  /// `out` for `round` given `prev`, the graph this adversary returned for
  /// round - 1 (null in round 1).  Return false (the default) when there is
  /// no incremental path — the engine then falls back to topology().
  /// Contract: out.graph must be value-identical (same node count, same
  /// edges() sequence) to what topology() would have returned for the same
  /// round and observation, so runs stay byte-identical across the two
  /// paths (tests/fuzz_diff_test.cpp pins this for the zoo against
  /// RebuildEveryRound below).  `prev` is lent: an adversary that holds
  /// the same graph may drop its own reference, and when the caller's is
  /// then the only one left, net::applyDelta patches that graph in place
  /// (the engine replaces its `prev` with out.graph anyway).  A graph
  /// anyone else still holds is never changed.
  virtual bool topologyUpdate(Round round, const RoundObservation& obs,
                              const net::GraphPtr& prev, TopologyUpdate& out) {
    (void)round;
    (void)obs;
    (void)prev;
    (void)out;
    return false;
  }

  virtual NodeId numNodes() const = 0;
};

/// The rebuild-every-round reference: forwards topology() and numNodes()
/// to the wrapped adversary and never overrides topologyUpdate, so the
/// engine builds every round's graph through topology().  Differential
/// tests and A/B benches wrap a delta-native adversary in it to compare
/// the incremental path against a from-scratch build of the same graphs.
class RebuildEveryRound final : public Adversary {
 public:
  explicit RebuildEveryRound(std::unique_ptr<Adversary> inner)
      : inner_(std::move(inner)) {}
  net::GraphPtr topology(Round round, const RoundObservation& obs) override {
    return inner_->topology(round, obs);
  }
  NodeId numNodes() const override { return inner_->numNodes(); }

 private:
  std::unique_ptr<Adversary> inner_;
};

}  // namespace dynet::sim
