#include "dataset/trace.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "util/check.h"
#include "util/rng.h"

namespace dynet::dataset {

namespace {

bool edgeLess(const net::Edge& x, const net::Edge& y) {
  return std::tie(x.a, x.b) < std::tie(y.a, y.b);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view data, std::uint64_t state) {
  for (const char c : data) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::uint64_t fnv1a64(std::string_view data) {
  return fnv1a64(data, 0xcbf29ce484222325ULL);
}

std::size_t CompiledTrace::deltaRecords() const {
  std::size_t total = 0;
  for (const RoundDelta& d : deltas) {
    total += d.removed.size() + d.added.size();
  }
  return total;
}

TraceSummary summarize(const CompiledTrace& trace) {
  TraceSummary s;
  s.num_nodes = trace.num_nodes;
  s.rounds = trace.rounds;
  s.initial_edges = trace.initial.size();
  s.delta_records = trace.deltaRecords();
  s.edges_per_round.reserve(static_cast<std::size_t>(trace.rounds));
  std::size_t edges = trace.initial.size();
  std::size_t total = 0;
  s.min_edges = edges;
  s.max_edges = edges;
  for (sim::Round r = 1; r <= trace.rounds; ++r) {
    if (r > 1) {
      const RoundDelta& d = trace.deltas[static_cast<std::size_t>(r) - 2];
      edges = edges - d.removed.size() + d.added.size();
    }
    s.edges_per_round.push_back(edges);
    s.min_edges = std::min(s.min_edges, edges);
    s.max_edges = std::max(s.max_edges, edges);
    total += edges;
  }
  s.mean_edges =
      trace.rounds > 0
          ? static_cast<double>(total) / static_cast<double>(trace.rounds)
          : 0.0;
  return s;
}

CompiledTrace compile(const TraceEvents& events) {
  DYNET_CHECK(events.num_nodes >= 1)
      << "trace " << events.source << ": no nodes";
  // Boundary sweep: +1 at interval start, -1 just past interval end.  The
  // active count per edge merges overlapping and duplicate intervals, and
  // back-to-back intervals ([3,4] then [5,6]) produce no spurious delta
  // because both boundary changes land on the same round and cancel.
  struct Boundary {
    sim::Round round;
    net::Edge edge;
    int delta;
  };
  std::vector<Boundary> boundaries;
  boundaries.reserve(events.intervals.size() * 2);
  sim::Round last_round = events.rounds;
  for (const EdgeInterval& iv : events.intervals) {
    DYNET_CHECK(iv.edge.a >= 0 && iv.edge.b < events.num_nodes &&
                iv.edge.a < iv.edge.b)
        << "trace " << events.source << ": bad edge (" << iv.edge.a << ","
        << iv.edge.b << "), n=" << events.num_nodes;
    DYNET_CHECK(iv.first >= 1 && iv.last >= iv.first)
        << "trace " << events.source << ": bad interval [" << iv.first << ","
        << iv.last << "] for edge (" << iv.edge.a << "," << iv.edge.b << ")";
    boundaries.push_back({iv.first, iv.edge, +1});
    boundaries.push_back({iv.last + 1, iv.edge, -1});
    last_round = std::max(last_round, iv.last);
  }
  DYNET_CHECK(last_round >= 1)
      << "trace " << events.source << ": empty timeline";
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& x, const Boundary& y) {
              return std::tie(x.round, x.edge.a, x.edge.b, x.delta) <
                     std::tie(y.round, y.edge.a, y.edge.b, y.delta);
            });

  CompiledTrace out;
  out.num_nodes = events.num_nodes;
  out.rounds = last_round;
  out.labels = events.labels;
  out.bucket = events.bucket;
  out.source_hash = events.source_hash;
  out.source = events.source;

  std::map<net::Edge, int, decltype(&edgeLess)> active(&edgeLess);
  std::size_t next = 0;
  for (sim::Round r = 1; r <= last_round; ++r) {
    RoundDelta delta;
    while (next < boundaries.size() && boundaries[next].round == r) {
      // Sum all boundary changes for one edge at this round before
      // classifying the transition, so cancelling intervals are silent.
      const net::Edge e = boundaries[next].edge;
      int change = 0;
      while (next < boundaries.size() && boundaries[next].round == r &&
             boundaries[next].edge == e) {
        change += boundaries[next].delta;
        ++next;
      }
      auto [it, inserted] = active.try_emplace(e, 0);
      const int before = it->second;
      const int after = before + change;
      DYNET_CHECK(after >= 0)
          << "trace " << events.source << ": interval bookkeeping underflow";
      it->second = after;
      if (before == 0 && after > 0) {
        delta.added.push_back(e);
      } else if (before > 0 && after == 0) {
        delta.removed.push_back(e);
        active.erase(it);
      } else if (inserted && after == 0) {
        active.erase(it);
      }
    }
    // Boundaries were visited in (a, b) order within the round, so both
    // lists are already sorted; assert rather than re-sort.
    if (r == 1) {
      DYNET_CHECK(delta.removed.empty())
          << "trace " << events.source << ": removal before round 1";
      out.initial = std::move(delta.added);
    } else {
      out.deltas.push_back(std::move(delta));
    }
  }
  return out;
}

CompiledTrace randomTrace(net::NodeId n, sim::Round rounds, int churn,
                          std::uint64_t seed) {
  DYNET_CHECK(n >= 2) << "randomTrace needs n >= 2, got " << n;
  DYNET_CHECK(rounds >= 1) << "randomTrace needs rounds >= 1";
  DYNET_CHECK(churn >= 0) << "randomTrace churn must be >= 0";
  util::Rng rng(util::hashCombine(seed, 0x7261636574726163ULL));

  CompiledTrace out;
  out.num_nodes = n;
  out.rounds = rounds;
  out.source = "randomTrace";
  out.source_hash = util::hashCombine(
      util::hashCombine(static_cast<std::uint64_t>(n),
                        static_cast<std::uint64_t>(rounds)),
      util::hashCombine(static_cast<std::uint64_t>(churn), seed));

  // Round 1: a random tree (connected) plus n/4 chords.
  std::set<std::pair<net::NodeId, net::NodeId>> present;
  for (net::NodeId v = 1; v < n; ++v) {
    const auto parent = static_cast<net::NodeId>(
        rng.below(static_cast<std::uint64_t>(v)));
    present.emplace(parent, v);
  }
  const int chords = n / 4;
  for (int i = 0; i < chords; ++i) {
    auto a = static_cast<net::NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    auto b = static_cast<net::NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    if (a == b) {
      continue;
    }
    if (a > b) {
      std::swap(a, b);
    }
    present.emplace(a, b);
  }
  for (const auto& [a, b] : present) {
    out.initial.push_back({a, b});
  }

  for (sim::Round r = 2; r <= rounds; ++r) {
    RoundDelta delta;
    std::set<std::pair<net::NodeId, net::NodeId>> removed;
    std::set<std::pair<net::NodeId, net::NodeId>> added;
    for (int c = 0; c < churn; ++c) {
      // Drop one present edge (by index) and add one absent edge.
      if (!present.empty()) {
        auto it = present.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.below(present.size())));
        if (added.find(*it) == added.end()) {
          removed.insert(*it);
          present.erase(it);
        }
      }
      auto a = static_cast<net::NodeId>(
          rng.below(static_cast<std::uint64_t>(n)));
      auto b = static_cast<net::NodeId>(
          rng.below(static_cast<std::uint64_t>(n)));
      if (a == b) {
        continue;
      }
      if (a > b) {
        std::swap(a, b);
      }
      const std::pair<net::NodeId, net::NodeId> e{a, b};
      if (present.find(e) != present.end() || removed.find(e) != removed.end()) {
        continue;
      }
      added.insert(e);
      present.insert(e);
    }
    for (const auto& [a, b] : removed) {
      delta.removed.push_back({a, b});
    }
    for (const auto& [a, b] : added) {
      delta.added.push_back({a, b});
    }
    out.deltas.push_back(std::move(delta));
  }
  return out;
}

void applyPositionalPatch(std::vector<net::Edge>& edges,
                          std::span<const net::Edge> removed,
                          std::span<const net::Edge> added,
                          const std::string& source, sim::Round round) {
  const std::size_t missing = net::patchEdges(edges, removed, added);
  DYNET_CHECK(missing == removed.size())
      << "trace " << source << " round " << round << ": removed edge ("
      << removed[missing].a << "," << removed[missing].b << ") not present";
}

}  // namespace dynet::dataset
