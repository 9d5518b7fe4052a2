#include "adversary/static_adversaries.h"

#include "util/check.h"

namespace dynet::adv {

StaticAdversary::StaticAdversary(net::GraphPtr graph) : graph_(std::move(graph)) {
  DYNET_CHECK(graph_ != nullptr) << "null graph";
  DYNET_CHECK(graph_->connected()) << "static topology must be connected";
}

net::GraphPtr StaticAdversary::topology(sim::Round /*round*/,
                                        const sim::RoundObservation& /*obs*/) {
  return graph_;
}

bool StaticAdversary::topologyUpdate(sim::Round /*round*/,
                                     const sim::RoundObservation& /*obs*/,
                                     const net::GraphPtr& prev,
                                     sim::TopologyUpdate& out) {
  out.graph = graph_;
  out.is_delta = prev != nullptr;
  return true;
}

PeriodicAdversary::PeriodicAdversary(std::vector<net::GraphPtr> graphs)
    : graphs_(std::move(graphs)) {
  DYNET_CHECK(!graphs_.empty()) << "no graphs";
  for (const auto& g : graphs_) {
    DYNET_CHECK(g != nullptr && g->connected()) << "bad periodic topology";
    DYNET_CHECK(g->numNodes() == graphs_.front()->numNodes())
        << "periodic topologies must agree on N";
  }
}

net::GraphPtr PeriodicAdversary::topology(sim::Round round,
                                          const sim::RoundObservation& /*obs*/) {
  return graphs_[static_cast<std::size_t>((round - 1) % static_cast<sim::Round>(graphs_.size()))];
}

bool PeriodicAdversary::topologyUpdate(sim::Round round,
                                       const sim::RoundObservation& obs,
                                       const net::GraphPtr& prev,
                                       sim::TopologyUpdate& out) {
  out.graph = topology(round, obs);
  out.is_delta = prev != nullptr;
  return true;
}

}  // namespace dynet::adv
