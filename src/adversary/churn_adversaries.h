// Smooth-churn adversaries: topologies that change gradually, filling the
// space between the static zoo and the full per-round reshuffles.
//
//   * EdgeChurnAdversary — maintains a spanning tree and, every round,
//     relocates `churn_edges` random tree edges (remove a non-bridge...
//     in tree terms: re-attach a random subtree).  churn_edges = 0 is a
//     static tree; large values approach a fresh random tree per round.
//   * RandomGraphAdversary — G(n, p) each round, unioned with a random
//     spanning tree so connectivity always holds.
#pragma once

#include <cstdint>

#include "sim/adversary.h"
#include "util/rng.h"

namespace dynet::adv {

class EdgeChurnAdversary : public sim::Adversary {
 public:
  EdgeChurnAdversary(sim::NodeId n, int churn_edges, std::uint64_t seed);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  /// Delta-native: performs the same churn moves (same rng draws) as
  /// topology() but patches the previous graph with net::applyDelta —
  /// one removed/added edge pair per re-attached child — instead of
  /// rebuilding the whole tree.  Emits a value-identical edges() sequence
  /// (the rebuild order is child-ascending and applyDelta replaces
  /// positionally), so runs on either path match byte for byte.  Drops
  /// its own reference when `prev` is that graph, so the patch runs in
  /// place whenever the caller's is the only other one.
  bool topologyUpdate(sim::Round round, const sim::RoundObservation& obs,
                      const net::GraphPtr& prev,
                      sim::TopologyUpdate& out) override;
  sim::NodeId numNodes() const override { return n_; }

 private:
  void rebuild();

  sim::NodeId n_;
  int churn_edges_;
  util::Rng rng_;
  // parent[v] for v >= 1 encodes the current tree (parent in a rooted
  // orientation towards node 0).
  std::vector<sim::NodeId> parent_;
  net::GraphPtr current_;
};

class RandomGraphAdversary : public sim::Adversary {
 public:
  RandomGraphAdversary(sim::NodeId n, double p, std::uint64_t seed);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  sim::NodeId numNodes() const override { return n_; }

 private:
  sim::NodeId n_;
  double p_;
  std::uint64_t seed_;
};

}  // namespace dynet::adv
