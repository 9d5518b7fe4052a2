#include "adversary/dynamic_adversaries.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/check.h"

namespace dynet::adv {

std::vector<net::Edge> randomAttachTree(sim::NodeId n, util::Rng& rng) {
  DYNET_CHECK(n >= 1) << "n=" << n;
  std::vector<sim::NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<net::Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto parent = order[rng.below(i)];
    edges.push_back({parent, order[i]});
  }
  return edges;
}

RandomTreeAdversary::RandomTreeAdversary(sim::NodeId n, std::uint64_t seed)
    : n_(n), seed_(seed) {
  DYNET_CHECK(n >= 2) << "n=" << n;
}

net::GraphPtr RandomTreeAdversary::topology(sim::Round round,
                                            const sim::RoundObservation&) {
  util::Rng rng(util::hashCombine(seed_, static_cast<std::uint64_t>(round)));
  return std::make_shared<net::Graph>(n_, randomAttachTree(n_, rng));
}

RotatingStarAdversary::RotatingStarAdversary(sim::NodeId n) : n_(n) {
  DYNET_CHECK(n >= 2) << "n=" << n;
}

net::GraphPtr RotatingStarAdversary::topology(sim::Round round,
                                              const sim::RoundObservation&) {
  return net::makeStar(n_, static_cast<sim::NodeId>((round - 1) % n_));
}

ShufflePathAdversary::ShufflePathAdversary(sim::NodeId n, std::uint64_t seed)
    : n_(n), seed_(seed) {
  DYNET_CHECK(n >= 2) << "n=" << n;
}

net::GraphPtr ShufflePathAdversary::topology(sim::Round round,
                                             const sim::RoundObservation&) {
  util::Rng rng(util::hashCombine(seed_ ^ 0x9d2c5680cafef00dULL,
                                  static_cast<std::uint64_t>(round)));
  std::vector<sim::NodeId> order(static_cast<std::size_t>(n_));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<net::Edge> edges;
  edges.reserve(order.size() - 1);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    edges.push_back({order[i], order[i + 1]});
  }
  return std::make_shared<net::Graph>(n_, std::move(edges));
}

IntervalAdversary::IntervalAdversary(sim::NodeId n, sim::Round interval,
                                     std::uint64_t seed)
    : n_(n), interval_(interval), seed_(seed) {
  DYNET_CHECK(n >= 2) << "n=" << n;
  DYNET_CHECK(interval >= 1) << "interval=" << interval;
}

net::GraphPtr IntervalAdversary::topology(sim::Round round,
                                          const sim::RoundObservation&) {
  const sim::Round epoch = (round - 1) / interval_;
  if (epoch != current_epoch_ || current_ == nullptr) {
    util::Rng rng(util::hashCombine(seed_ ^ 0xb5297a4d3f84d5b5ULL,
                                    static_cast<std::uint64_t>(epoch)));
    current_ = std::make_shared<net::Graph>(n_, randomAttachTree(n_, rng));
    current_epoch_ = epoch;
  }
  return current_;
}

bool IntervalAdversary::topologyUpdate(sim::Round round,
                                       const sim::RoundObservation& obs,
                                       const net::GraphPtr& prev,
                                       sim::TopologyUpdate& out) {
  const bool held =
      prev != nullptr && current_ != nullptr &&
      (round - 1) / interval_ == current_epoch_;
  out.graph = topology(round, obs);
  out.is_delta = held;
  return true;
}

AnchoredStarAdversary::AnchoredStarAdversary(sim::NodeId n, std::uint64_t seed)
    : n_(n), seed_(seed) {
  DYNET_CHECK(n >= 2) << "n=" << n;
}

net::GraphPtr AnchoredStarAdversary::topology(sim::Round round,
                                              const sim::RoundObservation&) {
  std::vector<net::Edge> edges;
  edges.reserve(static_cast<std::size_t>(n_));
  for (sim::NodeId v = 1; v < n_; ++v) {
    edges.push_back({0, v});
  }
  if (n_ >= 3) {
    util::Rng rng(util::hashCombine(seed_ ^ 0x2545f4914f6cdd1dULL,
                                    static_cast<std::uint64_t>(round)));
    const auto a = static_cast<sim::NodeId>(
        1 + rng.below(static_cast<std::uint64_t>(n_ - 1)));
    auto b = static_cast<sim::NodeId>(
        1 + rng.below(static_cast<std::uint64_t>(n_ - 1)));
    if (a != b) {
      edges.push_back({a, b});
    }
  }
  return std::make_shared<net::Graph>(n_, std::move(edges));
}

SenderChokeAdversary::SenderChokeAdversary(sim::NodeId n) : n_(n) {
  DYNET_CHECK(n >= 2) << "n=" << n;
}

net::GraphPtr SenderChokeAdversary::topology(sim::Round /*round*/,
                                             const sim::RoundObservation& obs) {
  DYNET_CHECK(static_cast<sim::NodeId>(obs.actions.size()) == n_)
      << "observation size mismatch";
  // Chain senders together, chain receivers together, and add exactly one
  // crossing edge between the two chains (if both are non-empty).
  std::vector<sim::NodeId> senders;
  std::vector<sim::NodeId> receivers;
  for (sim::NodeId v = 0; v < n_; ++v) {
    (obs.actions[static_cast<std::size_t>(v)].send ? senders : receivers)
        .push_back(v);
  }
  std::vector<net::Edge> edges;
  edges.reserve(static_cast<std::size_t>(n_));
  for (std::size_t i = 0; i + 1 < senders.size(); ++i) {
    edges.push_back({senders[i], senders[i + 1]});
  }
  for (std::size_t i = 0; i + 1 < receivers.size(); ++i) {
    edges.push_back({receivers[i], receivers[i + 1]});
  }
  if (!senders.empty() && !receivers.empty()) {
    edges.push_back({senders.front(), receivers.front()});
  }
  return std::make_shared<net::Graph>(n_, std::move(edges));
}

}  // namespace dynet::adv
