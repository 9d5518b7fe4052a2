// Static and periodic adversaries.
#pragma once

#include <memory>

#include "sim/adversary.h"

namespace dynet::adv {

/// Presents the same topology every round (a static network).
class StaticAdversary : public sim::Adversary {
 public:
  explicit StaticAdversary(net::GraphPtr graph);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  /// Delta-native: every round after the first reuses the previous round's
  /// graph unchanged (a zero-edge delta).
  bool topologyUpdate(sim::Round round, const sim::RoundObservation& obs,
                      const net::GraphPtr& prev,
                      sim::TopologyUpdate& out) override;
  sim::NodeId numNodes() const override { return graph_->numNodes(); }

 private:
  net::GraphPtr graph_;
};

/// Cycles through a fixed list of topologies (period = list size).
class PeriodicAdversary : public sim::Adversary {
 public:
  explicit PeriodicAdversary(std::vector<net::GraphPtr> graphs);

  net::GraphPtr topology(sim::Round round, const sim::RoundObservation& obs) override;
  /// Delta-native in the reuse sense: the cycle's graphs, built once, are
  /// handed out as incremental rounds (the engine re-derives nothing).
  bool topologyUpdate(sim::Round round, const sim::RoundObservation& obs,
                      const net::GraphPtr& prev,
                      sim::TopologyUpdate& out) override;
  sim::NodeId numNodes() const override { return graphs_.front()->numNodes(); }

 private:
  std::vector<net::GraphPtr> graphs_;
};

}  // namespace dynet::adv
