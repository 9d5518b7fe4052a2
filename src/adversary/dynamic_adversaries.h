// Oblivious dynamic adversaries and one adaptive adversary.
//
// These form the "adversary zoo" used to exercise the upper-bound protocols
// on genuinely changing topologies:
//   * RandomTreeAdversary    — a fresh uniform-ish random spanning tree each
//                              round (diameter varies round to round),
//   * RotatingStarAdversary  — a star whose center moves every round
//                              (constant diameter, full churn),
//   * ShufflePathAdversary   — a path over a fresh random permutation each
//                              round (large diameter, full churn),
//   * IntervalAdversary      — holds each random tree for T rounds
//                              (the T-interval model's flavor),
//   * SenderChokeAdversary   — ADAPTIVE: after seeing who sends, connects
//                              senders to senders and receivers to receivers
//                              with a single crossing edge, minimizing useful
//                              delivery.  It demonstrates why complexity is
//                              measured in realized flooding rounds.
#pragma once

#include <cstdint>

#include "sim/adversary.h"
#include "util/rng.h"

namespace dynet::adv {

class RandomTreeAdversary : public sim::Adversary {
 public:
  RandomTreeAdversary(sim::NodeId n, std::uint64_t seed);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  sim::NodeId numNodes() const override { return n_; }

 private:
  sim::NodeId n_;
  std::uint64_t seed_;
};

class RotatingStarAdversary : public sim::Adversary {
 public:
  explicit RotatingStarAdversary(sim::NodeId n);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  sim::NodeId numNodes() const override { return n_; }

 private:
  sim::NodeId n_;
};

class ShufflePathAdversary : public sim::Adversary {
 public:
  ShufflePathAdversary(sim::NodeId n, std::uint64_t seed);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  sim::NodeId numNodes() const override { return n_; }

 private:
  sim::NodeId n_;
  std::uint64_t seed_;
};

class IntervalAdversary : public sim::Adversary {
 public:
  IntervalAdversary(sim::NodeId n, sim::Round interval, std::uint64_t seed);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  /// Delta-native within an epoch: rounds 2..T of each T-round interval
  /// reuse the held tree unchanged; an epoch boundary builds fresh.
  bool topologyUpdate(sim::Round round, const sim::RoundObservation& obs,
                      const net::GraphPtr& prev,
                      sim::TopologyUpdate& out) override;
  sim::NodeId numNodes() const override { return n_; }

 private:
  sim::NodeId n_;
  sim::Round interval_;
  std::uint64_t seed_;
  net::GraphPtr current_;
  sim::Round current_epoch_ = -1;
};

/// Star anchored at node 0 plus one random extra edge per round: the
/// topology churns every round, yet the causal diameter stays 2 (any
/// influence routes through the permanent hub).  Note the contrast with
/// RotatingStarAdversary, whose causal diameter is Θ(N): the moving center
/// loses its adjacency before it can forward, so information crawls along
/// the center schedule — a nice illustration that "small per-round
/// diameter" and "small dynamic diameter" are different things.
class AnchoredStarAdversary : public sim::Adversary {
 public:
  AnchoredStarAdversary(sim::NodeId n, std::uint64_t seed);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  sim::NodeId numNodes() const override { return n_; }

 private:
  sim::NodeId n_;
  std::uint64_t seed_;
};

class SenderChokeAdversary : public sim::Adversary {
 public:
  explicit SenderChokeAdversary(sim::NodeId n);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  sim::NodeId numNodes() const override { return n_; }

 private:
  sim::NodeId n_;
};

/// Edges of a uniform random spanning tree-ish graph via random attachment
/// of a random permutation (every node i>0 attaches to a uniform earlier
/// node).
std::vector<net::Edge> randomAttachTree(sim::NodeId n, util::Rng& rng);

}  // namespace dynet::adv
