#include "adversary/churn_adversaries.h"

#include <algorithm>

#include "adversary/dynamic_adversaries.h"
#include "util/check.h"

namespace dynet::adv {

EdgeChurnAdversary::EdgeChurnAdversary(sim::NodeId n, int churn_edges,
                                       std::uint64_t seed)
    : n_(n), churn_edges_(churn_edges), rng_(seed) {
  DYNET_CHECK(n >= 2) << "n=" << n;
  DYNET_CHECK(churn_edges >= 0) << "churn_edges=" << churn_edges;
  parent_.assign(static_cast<std::size_t>(n), 0);
  for (sim::NodeId v = 1; v < n_; ++v) {
    parent_[static_cast<std::size_t>(v)] =
        static_cast<sim::NodeId>(rng_.below(static_cast<std::uint64_t>(v)));
  }
  rebuild();
}

void EdgeChurnAdversary::rebuild() {
  std::vector<net::Edge> edges;
  edges.reserve(static_cast<std::size_t>(n_) - 1);
  for (sim::NodeId v = 1; v < n_; ++v) {
    edges.push_back({parent_[static_cast<std::size_t>(v)], v});
  }
  current_ = std::make_shared<net::Graph>(n_, std::move(edges));
}

net::GraphPtr EdgeChurnAdversary::topology(sim::Round /*round*/,
                                           const sim::RoundObservation&) {
  // Re-attach `churn_edges_` random non-root nodes to new parents.  To keep
  // the parent encoding acyclic we only allow re-attachment to a node that
  // is not in v's own subtree; re-attaching to any strictly smaller id is a
  // simple sufficient rule (the tree stays a DAG towards node 0).
  for (int c = 0; c < churn_edges_ && n_ > 2; ++c) {
    const auto v = static_cast<sim::NodeId>(
        1 + rng_.below(static_cast<std::uint64_t>(n_ - 1)));
    parent_[static_cast<std::size_t>(v)] =
        static_cast<sim::NodeId>(rng_.below(static_cast<std::uint64_t>(v)));
  }
  if (churn_edges_ > 0) {
    rebuild();
  }
  return current_;
}

bool EdgeChurnAdversary::topologyUpdate(sim::Round /*round*/,
                                        const sim::RoundObservation& /*obs*/,
                                        const net::GraphPtr& prev,
                                        sim::TopologyUpdate& out) {
  if (churn_edges_ > 0 && n_ > 2) {
    // Same churn moves and rng draws as topology(); remember each child's
    // pre-churn parent so the net effect becomes a delta.
    std::vector<std::pair<sim::NodeId, sim::NodeId>> moved;  // (child, old)
    for (int c = 0; c < churn_edges_; ++c) {
      const auto v = static_cast<sim::NodeId>(
          1 + rng_.below(static_cast<std::uint64_t>(n_ - 1)));
      bool seen = false;
      for (const auto& [child, old_parent] : moved) {
        if (child == v) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        moved.emplace_back(v, parent_[static_cast<std::size_t>(v)]);
      }
      parent_[static_cast<std::size_t>(v)] =
          static_cast<sim::NodeId>(rng_.below(static_cast<std::uint64_t>(v)));
    }
    // Child-ascending order matches rebuild()'s edge order, so
    // net::applyDelta's positional replacement reproduces it exactly.
    std::sort(moved.begin(), moved.end());
    std::vector<net::Edge> removed;
    std::vector<net::Edge> added;
    for (const auto& [child, old_parent] : moved) {
      const sim::NodeId now = parent_[static_cast<std::size_t>(child)];
      if (now != old_parent) {
        removed.push_back({old_parent, child});
        added.push_back({now, child});
      }
    }
    if (!removed.empty()) {
      // Re-attaching children keeps the parent encoding a tree, so the
      // result is always connected: assert that to carry the component
      // count across the delta (skips a per-round union-find pass).  When
      // the caller lent last round's graph, this adversary lets go of its
      // own reference first, so a caller holding the only other one gets
      // it patched in place.
      if (prev == current_) {
        current_.reset();
      }
      current_ = net::applyDelta(current_ != nullptr ? current_ : prev,
                                 removed, added, /*same_components=*/true);
      out.edges_removed = removed.size();
      out.edges_added = added.size();
    }
    out.graph = current_;
    out.is_delta = true;
    return true;
  }
  out.graph = current_;
  out.is_delta = prev != nullptr;
  return true;
}

RandomGraphAdversary::RandomGraphAdversary(sim::NodeId n, double p,
                                           std::uint64_t seed)
    : n_(n), p_(p), seed_(seed) {
  DYNET_CHECK(n >= 2) << "n=" << n;
  DYNET_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
}

net::GraphPtr RandomGraphAdversary::topology(sim::Round round,
                                             const sim::RoundObservation&) {
  util::Rng rng(util::hashCombine(seed_ ^ 0x94d049bb133111ebULL,
                                  static_cast<std::uint64_t>(round)));
  // Spanning tree for guaranteed connectivity...
  std::vector<net::Edge> edges = randomAttachTree(n_, rng);
  // ...plus Bernoulli(p) extra edges.  Sample the number per node pair
  // implicitly by walking pairs with a geometric skip for efficiency.
  if (p_ > 0.0) {
    const double log1mp = std::log1p(-std::min(p_, 0.999999));
    const auto total = static_cast<std::uint64_t>(n_) *
                       static_cast<std::uint64_t>(n_ - 1) / 2;
    std::uint64_t idx = 0;
    while (true) {
      const double u = std::max(rng.real(), 1e-18);
      idx += 1 + static_cast<std::uint64_t>(std::log(u) / log1mp);
      if (idx > total) {
        break;
      }
      // Map linear index (1-based) to pair (a, b).
      const std::uint64_t z = idx - 1;
      const auto a = static_cast<sim::NodeId>(
          (1 + static_cast<std::uint64_t>(
                   std::sqrt(8.0 * static_cast<double>(z) + 1.0))) /
          2);
      // Adjust for floating point error.
      std::uint64_t a64 = a;
      while (a64 * (a64 + 1) / 2 > z) {
        --a64;
      }
      while ((a64 + 1) * (a64 + 2) / 2 <= z) {
        ++a64;
      }
      const auto row = static_cast<sim::NodeId>(a64 + 1);
      const auto col = static_cast<sim::NodeId>(z - a64 * (a64 + 1) / 2);
      if (row < n_ && col < row) {
        edges.push_back({col, row});
      }
    }
  }
  // Deduplicate against the tree edges.
  std::sort(edges.begin(), edges.end(), [](const net::Edge& x, const net::Edge& y) {
    return std::pair(std::min(x.a, x.b), std::max(x.a, x.b)) <
           std::pair(std::min(y.a, y.b), std::max(y.a, y.b));
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const net::Edge& x, const net::Edge& y) {
                            return std::pair(std::min(x.a, x.b), std::max(x.a, x.b)) ==
                                   std::pair(std::min(y.a, y.b), std::max(y.a, y.b));
                          }),
              edges.end());
  return std::make_shared<net::Graph>(n_, std::move(edges));
}

}  // namespace dynet::adv
