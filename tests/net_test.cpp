// Tests for graphs, connectivity, and the causal (dynamic) diameter.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "net/diameter.h"
#include "net/graph.h"
#include "test_support.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::net {
namespace {

using testsupport::expectCheckError;

TEST(Graph, AdjacencyMatchesEdges) {
  Graph g(5, {{0, 1}, {1, 2}, {1, 3}});
  EXPECT_EQ(g.neighbors(1).size(), 3u);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(4).size(), 0u);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 0));
  EXPECT_FALSE(g.hasEdge(0, 2));
}

TEST(Graph, RejectsBadEdges) {
  EXPECT_THROW(Graph(3, {{0, 3}}), util::CheckError);
  EXPECT_THROW(Graph(3, {{1, 1}}), util::CheckError);
  EXPECT_THROW(Graph(0, {}), util::CheckError);
  expectCheckError([] { Graph(3, {{0, 3}}); }, "edge (0,3) out of range, n=3");
  expectCheckError([] { Graph(3, {{-1, 2}}); }, "edge (-1,2) out of range, n=3");
  expectCheckError([] { Graph(3, {{1, 1}}); }, "self-loop at 1");
  expectCheckError([] { Graph(0, {}); }, "graph needs at least one node");
  // The first bad edge in list order is the one reported.
  expectCheckError([] { Graph(3, {{0, 1}, {2, 2}, {0, 5}}); }, "self-loop at 2");
  expectCheckError([] { Graph(3, {{0, 1}, {0, 5}, {2, 2}}); },
                   "edge (0,5) out of range, n=3");
}

TEST(Graph, NeighborsOfMissingNodeRejected) {
  const Graph g(5, {{0, 1}, {1, 2}});
  expectCheckError([&] { g.neighbors(5); }, "node 5 out of range");
  expectCheckError([&] { g.neighbors(-1); }, "node -1 out of range");
  EXPECT_THROW(g.hasEdge(7, 0), util::CheckError);
}

TEST(Graph, Connectivity) {
  EXPECT_TRUE(Graph(1, {}).connected());
  EXPECT_FALSE(Graph(2, {}).connected());
  EXPECT_TRUE(Graph(3, {{0, 1}, {1, 2}}).connected());
  Graph split(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(split.connected());
  EXPECT_EQ(split.componentCount(), 2);
}

/// The delivery loop hands each receiver its sending neighbors in
/// neighbors(v) order as the canonical ascending-sender order, so every
/// CSR row must come out sorted.
bool rowsSorted(const Graph& g) {
  for (NodeId v = 0; v < g.numNodes(); ++v) {
    const auto row = g.neighbors(v);
    if (!std::is_sorted(row.begin(), row.end())) {
      return false;
    }
  }
  return true;
}

TEST(GraphBuilders, Shapes) {
  EXPECT_TRUE(makePath(6)->connected());
  EXPECT_EQ(makePath(6)->numEdges(), 5u);
  EXPECT_TRUE(makeRing(6)->connected());
  EXPECT_EQ(makeRing(6)->numEdges(), 6u);
  EXPECT_TRUE(makeStar(6, 2)->connected());
  EXPECT_EQ(makeStar(6, 2)->neighbors(2).size(), 5u);
  EXPECT_EQ(makeClique(5)->numEdges(), 10u);
  auto torus = makeTorus(4, 5);
  EXPECT_TRUE(torus->connected());
  EXPECT_EQ(torus->neighbors(0).size(), 4u);
  for (const GraphPtr& g : {makePath(6), makeRing(6), makeStar(6, 2),
                            makeClique(5), torus}) {
    EXPECT_TRUE(rowsSorted(*g));
  }
  // Sorted whatever order the edge list arrives in.
  EXPECT_TRUE(rowsSorted(Graph(5, {{3, 1}, {0, 4}, {4, 2}, {1, 0}, {2, 0}})));
}

TEST(GraphBuilders, TorusTwoWideHasNoDuplicateEdges) {
  auto torus = makeTorus(2, 4);
  for (NodeId v = 0; v < torus->numNodes(); ++v) {
    auto ns = torus->neighbors(v);
    std::vector<NodeId> sorted(ns.begin(), ns.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
        << "duplicate neighbor at " << v;
  }
}

// ------------------------------------------------- positional-patch kernel

/// A random multigraph: edges in both orientations, some slots repeated
/// (as given or flipped) so the positional rule meets parallel edges.
std::vector<Edge> randomEdges(util::Rng& rng, NodeId n, std::size_t m) {
  std::vector<Edge> edges;
  while (edges.size() < m) {
    if (!edges.empty() && rng.below(5) == 0) {
      Edge e = edges[rng.below(edges.size())];
      if (rng.coin()) {
        std::swap(e.a, e.b);
      }
      edges.push_back(e);
      continue;
    }
    const auto a = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    const auto b = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    if (a != b) {
      edges.push_back({a, b});
    }
  }
  return edges;
}

enum class DeltaShape { kPaired, kAddHeavy, kRemoveHeavy, kEmpty, kOverHalf };

struct Delta {
  std::vector<Edge> removed;
  std::vector<Edge> added;
};

/// A valid delta of the given shape: removed edges are copies of distinct
/// slots in random order (parallel slots make equal removed entries),
/// added edges are random and may repeat present ones.
Delta randomDelta(util::Rng& rng, NodeId n, const std::vector<Edge>& edges,
                  DeltaShape shape) {
  const std::size_t m = edges.size();
  std::size_t removes = 0;
  std::size_t adds = 0;
  switch (shape) {
    case DeltaShape::kPaired:
      removes = adds = 1 + rng.below(std::max<std::size_t>(1, m / 4));
      break;
    case DeltaShape::kAddHeavy:
      removes = rng.below(std::max<std::size_t>(1, m / 8));
      adds = removes + 1 + rng.below(std::max<std::size_t>(1, m / 8));
      break;
    case DeltaShape::kRemoveHeavy:
      adds = rng.below(std::max<std::size_t>(1, m / 8));
      removes = std::min(m, adds + 1 + rng.below(std::max<std::size_t>(1, m / 8)));
      break;
    case DeltaShape::kEmpty:
      break;
    case DeltaShape::kOverHalf:
      removes = m / 2 + rng.below(m / 2 + 1);
      adds = m / 2 + 2 + rng.below(m / 2 + 1);
      break;
  }
  std::vector<std::size_t> slots(m);
  for (std::size_t j = 0; j < m; ++j) {
    slots[j] = j;
  }
  for (std::size_t j = m; j > 1; --j) {
    std::swap(slots[j - 1], slots[rng.below(j)]);
  }
  Delta d;
  for (std::size_t i = 0; i < removes; ++i) {
    d.removed.push_back(edges[slots[i]]);
  }
  while (d.added.size() < adds) {
    const auto a = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    const auto b = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    if (a != b) {
      d.added.push_back({a, b});
    }
  }
  return d;
}

TEST(PatchEdges, MatchesFirstMatchReferenceOnRandomDeltas) {
  util::Rng rng(0x9a7c4);
  const DeltaShape shapes[] = {DeltaShape::kPaired, DeltaShape::kAddHeavy,
                               DeltaShape::kRemoveHeavy, DeltaShape::kEmpty,
                               DeltaShape::kOverHalf};
  int rebuilds = 0;
  int compacting_patches = 0;
  int empty_patches = 0;
  int other_patches = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Mostly small graphs; every tenth is large enough for the kernel's
    // slot table to grow past its minimum size.
    const auto n = static_cast<NodeId>(trial % 10 == 9 ? 200 + rng.below(800)
                                                       : 2 + rng.below(30));
    const std::vector<Edge> base =
        randomEdges(rng, n, 1 + rng.below(3 * static_cast<std::uint64_t>(n)));
    const DeltaShape shape = shapes[trial % 5];
    const Delta d = randomDelta(rng, n, base, shape);

    std::vector<Edge> want = base;
    ASSERT_EQ(testsupport::referencePositionalPatch(want, d.removed, d.added),
              d.removed.size());
    std::vector<Edge> got = base;
    ASSERT_EQ(patchEdges(got, d.removed, d.added), d.removed.size());
    ASSERT_EQ(got, want) << "trial " << trial;

    // applyDelta: same edges() sequence, every CSR row equal to a
    // from-scratch build, and the component-carry rule.  Odd trials keep a
    // second reference to the base, so the patch takes the copy path and
    // leaves the base alone; even trials hand over the only one, and the
    // base is patched in place.
    GraphPtr graph = std::make_shared<Graph>(n, base);
    const int base_components = graph->componentCount();
    const GraphPtr held = trial % 2 == 1 ? graph : nullptr;
    const bool same_components = rng.coin();
    const GraphPtr patched =
        applyDelta(graph, d.removed, d.added, same_components);
    EXPECT_EQ(patched == graph, held == nullptr) << "trial " << trial;
    const std::span<const Edge> edges = patched->edges();
    ASSERT_TRUE(std::equal(edges.begin(), edges.end(), want.begin(), want.end()))
        << "trial " << trial;
    const Graph fresh(n, want);
    for (NodeId v = 0; v < n; ++v) {
      const auto row = patched->neighbors(v);
      const auto fresh_row = fresh.neighbors(v);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), fresh_row.begin(),
                             fresh_row.end()))
          << "trial " << trial << " node " << v;
      ASSERT_TRUE(std::is_sorted(row.begin(), row.end()))
          << "trial " << trial << " node " << v;
    }
    const bool over_half =
        (d.removed.size() + d.added.size()) * 2 > base.size() + 2;
    if (shape == DeltaShape::kOverHalf) {
      EXPECT_TRUE(over_half) << "trial " << trial;
    }
    ++(over_half                               ? rebuilds
       : d.removed.size() > d.added.size()     ? compacting_patches
       : d.removed.empty() && d.added.empty()  ? empty_patches
                                               : other_patches);
    const bool carry = !over_half &&
                       (same_components ||
                        (d.removed.empty() && base_components == 1));
    // A carried count is the base's, asserted or not; otherwise it is
    // recomputed from the patched edges.
    EXPECT_EQ(patched->componentCount(),
              carry ? base_components : fresh.componentCount())
        << "trial " << trial;
    if (held != nullptr) {
      const std::span<const Edge> kept = held->edges();
      EXPECT_TRUE(std::equal(kept.begin(), kept.end(), base.begin(), base.end()))
          << "trial " << trial;
    }
  }
  // Every branch of applyDelta ran: the over-half rebuild, CSR patches
  // that compact holes, empty deltas and the rest.
  EXPECT_GE(rebuilds, 80);
  EXPECT_GE(compacting_patches, 40);
  EXPECT_GE(empty_patches, 40);
  EXPECT_GE(other_patches, 80);
}

TEST(PatchEdges, ParallelEdgesGoToTheLowestEqualRemovedIndex) {
  // Slots 0, 2 and 4 hold (1,2); the two removals take slots 0 and 2 in
  // index order, so added[0] lands in slot 0 and added[1] in slot 2.
  std::vector<Edge> edges = {{1, 2}, {0, 1}, {1, 2}, {2, 1}, {1, 2}};
  const std::vector<Edge> removed = {{1, 2}, {1, 2}};
  const std::vector<Edge> added = {{0, 3}, {2, 3}};
  std::vector<Edge> want = edges;
  ASSERT_EQ(testsupport::referencePositionalPatch(want, removed, added), 2u);
  ASSERT_EQ(patchEdges(edges, removed, added), 2u);
  EXPECT_EQ(edges, want);
  EXPECT_EQ(edges, (std::vector<Edge>{{0, 3}, {0, 1}, {2, 3}, {2, 1}, {1, 2}}));
}

TEST(PatchEdges, MissingRemovalReportsFirstIndexAndLeavesEdgesUntouched) {
  const std::vector<Edge> base = {{0, 1}, {1, 2}, {2, 3}};
  // Present, orientation-flipped, then absent: index 1 is the first miss.
  // A removal beyond an edge's multiplicity misses too.
  const std::vector<std::vector<Edge>> cases = {
      {{0, 1}, {2, 1}, {0, 3}}, {{2, 3}, {0, 3}}, {{1, 2}, {1, 2}}};
  const std::size_t first_missing[] = {1, 1, 1};
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::vector<Edge> want = base;
    EXPECT_EQ(testsupport::referencePositionalPatch(want, cases[c], {}),
              first_missing[c]);
    std::vector<Edge> got = base;
    const std::vector<Edge> added = {{0, 2}};
    EXPECT_EQ(patchEdges(got, cases[c], added), first_missing[c]);
    EXPECT_EQ(got, base) << "a failed patch must not touch the list";
  }
}

TEST(GraphApplyDelta, ErrorPathsFailLoudly) {
  // The same messages on the copy path (a second owner) and in place, and
  // either way the graph comes back with its edges and rows unchanged.
  const std::vector<Edge> base = {{0, 1}, {1, 2}, {2, 3}, {1, 3}};
  for (const bool in_place : {false, true}) {
    GraphPtr g = std::make_shared<Graph>(4, base);
    const GraphPtr second = in_place ? nullptr : g;
    const auto apply = [&](const std::vector<Edge>& removed,
                           const std::vector<Edge>& added) {
      applyDelta(g, removed, added);
    };
    expectCheckError([&] { apply({{0, 2}}, {}); },
                     "removed edge (0,2) not present");
    expectCheckError([&] { apply({{1, 0}}, {}); },
                     "removed edge (1,0) not present");
    expectCheckError([&] { apply({{1, 2}, {0, 3}}, {{0, 2}}); },
                     "removed edge (0,3) not present");
    expectCheckError([&] { apply({{1, 2}, {1, 2}}, {}); },
                     "removed edge (1,2) not present");
    expectCheckError([&] { apply({{5, 1}}, {}); },
                     "removed edge (5,1) not present");
    expectCheckError([&] { apply({{1, 2}}, {{0, 4}}); },
                     "added edge (0,4) out of range, n=4");
    expectCheckError([&] { apply({}, {{-1, 2}}); },
                     "added edge (-1,2) out of range, n=4");
    expectCheckError([&] { apply({{1, 2}}, {{3, 3}}); },
                     "added self-loop at 3");
    const std::span<const Edge> edges = g->edges();
    EXPECT_TRUE(std::equal(edges.begin(), edges.end(), base.begin(), base.end()))
        << "in_place=" << in_place;
    const Graph fresh(4, base);
    for (NodeId v = 0; v < 4; ++v) {
      const auto row = g->neighbors(v);
      const auto want = fresh.neighbors(v);
      EXPECT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
          << "in_place=" << in_place << " node " << v;
    }
    EXPECT_EQ(g->componentCount(), 1);
  }
}

// ------------------------------------------------- born-complete build

/// Rows the plain way: each half-edge appended to its endpoint's row, then
/// every row sorted.
std::vector<std::vector<NodeId>> referenceRows(NodeId n,
                                               const std::vector<Edge>& edges) {
  std::vector<std::vector<NodeId>> rows(static_cast<std::size_t>(n));
  for (const Edge& e : edges) {
    rows[static_cast<std::size_t>(e.a)].push_back(e.b);
    rows[static_cast<std::size_t>(e.b)].push_back(e.a);
  }
  for (std::vector<NodeId>& row : rows) {
    std::sort(row.begin(), row.end());
  }
  return rows;
}

/// Components of the subgraph induced by the live nodes, by BFS.
int bfsComponents(const std::vector<std::vector<NodeId>>& rows,
                  const std::vector<char>& alive) {
  std::vector<char> seen(rows.size(), 0);
  std::vector<NodeId> queue;
  int components = 0;
  for (std::size_t s = 0; s < rows.size(); ++s) {
    if (alive[s] == 0 || seen[s] != 0) {
      continue;
    }
    ++components;
    seen[s] = 1;
    queue.assign(1, static_cast<NodeId>(s));
    while (!queue.empty()) {
      const NodeId v = queue.back();
      queue.pop_back();
      for (const NodeId u : rows[static_cast<std::size_t>(v)]) {
        const auto k = static_cast<std::size_t>(u);
        if (alive[k] != 0 && seen[k] == 0) {
          seen[k] = 1;
          queue.push_back(u);
        }
      }
    }
  }
  return components;
}

template <typename T>
void shuffleInPlace(util::Rng& rng, std::vector<T>& xs) {
  for (std::size_t j = xs.size(); j > 1; --j) {
    std::swap(xs[j - 1], xs[rng.below(j)]);
  }
}

/// A random tree on `nodes` (each attached to an earlier one), every edge
/// in a random orientation, the list shuffled.
std::vector<Edge> shuffledTree(util::Rng& rng, const std::vector<NodeId>& nodes) {
  std::vector<Edge> edges;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    Edge e{nodes[rng.below(i)], nodes[i]};
    if (rng.coin()) {
      std::swap(e.a, e.b);
    }
    edges.push_back(e);
  }
  shuffleInPlace(rng, edges);
  return edges;
}

TEST(GraphBuild, RowsAndComponentsMatchReferenceOnShuffledShapes) {
  util::Rng rng(0xB111D);
  int shapes_seen[5] = {};
  int live_connected = 0;
  int live_split = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // n = 1 first, n = 1000 last, every seventh case (each shape in
    // turn) in the hundreds.
    const auto n = static_cast<NodeId>(
        trial == 0     ? 1
        : trial == 199 ? 1000
        : trial % 7 == 6
            ? 200 + rng.below(800)
            : 1 + rng.below(64));
    const int shape = trial % 5;
    std::vector<Edge> edges;
    if (shape == 0) {  // random tree, shuffled edge order
      std::vector<NodeId> nodes(static_cast<std::size_t>(n));
      std::iota(nodes.begin(), nodes.end(), 0);
      edges = shuffledTree(rng, nodes);
    } else if (shape == 1) {  // star, shuffled leaves
      const auto center =
          static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      for (NodeId v = 0; v < n; ++v) {
        if (v != center) {
          edges.push_back(rng.coin() ? Edge{center, v} : Edge{v, center});
        }
      }
      shuffleInPlace(rng, edges);
    } else if (shape == 2) {  // clique listed in reverse (at most 80 nodes)
      for (NodeId i = 0; i < std::min<NodeId>(n, 80); ++i) {
        for (NodeId j = i + 1; j < std::min<NodeId>(n, 80); ++j) {
          edges.push_back({i, j});
        }
      }
      std::reverse(edges.begin(), edges.end());
    } else if (shape == 3 && n >= 2) {  // multigraph with parallel edges
      edges = randomEdges(
          rng, n, 1 + rng.below(3 * static_cast<std::uint64_t>(n)));
    } else if (shape == 4) {  // a tree on some nodes, the others isolated
      std::vector<NodeId> nodes;
      for (NodeId v = 0; v < n; ++v) {
        if (rng.below(3) != 0) {
          nodes.push_back(v);
        }
      }
      shuffleInPlace(rng, nodes);
      edges = shuffledTree(rng, nodes);
    }
    ++shapes_seen[shape];

    const Graph g(n, edges);
    const auto rows = referenceRows(n, edges);
    for (NodeId v = 0; v < n; ++v) {
      const auto row = g.neighbors(v);
      const auto& want = rows[static_cast<std::size_t>(v)];
      ASSERT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
          << "trial " << trial << " node " << v;
    }
    const std::vector<char> all(static_cast<std::size_t>(n), 1);
    const int components = bfsComponents(rows, all);
    ASSERT_EQ(g.componentCount(), components) << "trial " << trial;
    ASSERT_EQ(g.connected(), components == 1) << "trial " << trial;
    // connectedOn under random alive masks: dense, half and sparse.
    for (const std::uint64_t alive_pct : {90u, 50u, 15u}) {
      std::vector<char> alive(static_cast<std::size_t>(n));
      int live = 0;
      for (char& a : alive) {
        a = rng.below(100) < alive_pct ? 1 : 0;
        live += a;
      }
      const bool want = live <= 1 || bfsComponents(rows, alive) == 1;
      ASSERT_EQ(connectedOn(g, alive), want)
          << "trial " << trial << " alive_pct " << alive_pct;
      ++(want ? live_connected : live_split);
    }
  }
  for (const int seen : shapes_seen) {
    EXPECT_EQ(seen, 40);
  }
  EXPECT_GE(live_connected, 100);
  EXPECT_GE(live_split, 100);
}

// ------------------------------------------------- in-place patch

/// Holds `g` to its reference value: edges() equal to `edges`, every row
/// equal to the sorted reference and the component count to BFS.
void expectGraphIs(const Graph& g, NodeId n, const std::vector<Edge>& edges,
                   const std::string& where) {
  const std::span<const Edge> got = g.edges();
  ASSERT_TRUE(std::equal(got.begin(), got.end(), edges.begin(), edges.end()))
      << where;
  const std::vector<std::vector<NodeId>> rows = referenceRows(n, edges);
  for (NodeId v = 0; v < n; ++v) {
    const auto row = g.neighbors(v);
    const std::vector<NodeId>& want = rows[static_cast<std::size_t>(v)];
    ASSERT_TRUE(std::equal(row.begin(), row.end(), want.begin(), want.end()))
        << where << " node " << v;
  }
  ASSERT_EQ(g.componentCount(),
            bfsComponents(rows, std::vector<char>(rows.size(), 1)))
      << where;
}

TEST(GraphApplyDelta, InPlaceChainsMatchPatchEdgesOnRandomMultigraphs) {
  // One graph per chain takes every delta in place (the test holds its
  // only reference), so the open layout, its slot index and its slack
  // carry from patch to patch.  Hub deltas add many edges at one node and
  // push its row past its slack; over-half deltas rebuild the graph tight,
  // and the next patch lays it out again.
  util::Rng rng(0x1d9e5);
  const DeltaShape shapes[] = {DeltaShape::kPaired, DeltaShape::kAddHeavy,
                               DeltaShape::kRemoveHeavy, DeltaShape::kEmpty,
                               DeltaShape::kOverHalf};
  int deltas = 0;
  int moved_rows = 0;
  int hub_deltas = 0;
  for (int chain = 0; chain < 12; ++chain) {
    const auto n = static_cast<NodeId>(chain % 4 == 3 ? 300 + rng.below(300)
                                                       : 4 + rng.below(40));
    std::vector<Edge> want =
        randomEdges(rng, n, 2 + rng.below(3 * static_cast<std::uint64_t>(n)));
    GraphPtr g = std::make_shared<Graph>(n, want);
    for (int step = 0; step < 24; ++step, ++deltas) {
      Delta d;
      const bool hub = step % 3 == 2;
      if (hub) {
        // Paired removals, then adds that all touch node `center`, more
        // than any row's slack, and fewer than half the edges.
        d = randomDelta(rng, n, want, DeltaShape::kPaired);
        const auto center =
            static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
        const std::size_t extra = std::min<std::size_t>(
            8 + rng.below(8), want.size() / 4);
        d.removed.resize(std::min(d.removed.size(), want.size() / 8));
        d.added.clear();
        while (d.added.size() < d.removed.size() + extra) {
          const auto u =
              static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
          if (u != center) {
            d.added.push_back(rng.coin() ? Edge{center, u} : Edge{u, center});
          }
        }
        ++hub_deltas;
      } else {
        d = randomDelta(rng, n, want, shapes[rng.below(5)]);
      }
      std::vector<Edge> next = want;
      ASSERT_EQ(patchEdges(next, d.removed, d.added), d.removed.size());
      const std::vector<std::vector<NodeId>> rows = referenceRows(n, next);
      const int components =
          bfsComponents(rows, std::vector<char>(rows.size(), 1));
      // Assert same_components only where it holds.
      const bool same = components == g->componentCount() && rng.coin();
      std::vector<const NodeId*> before;
      for (NodeId v = 0; v < n; ++v) {
        before.push_back(g->neighbors(v).data());
      }
      const Graph* const object = g.get();
      const GraphPtr patched = applyDelta(g, d.removed, d.added, same);
      ASSERT_EQ(patched.get(), object);
      const std::string where =
          "chain " + std::to_string(chain) + " step " + std::to_string(step);
      expectGraphIs(*patched, n, next, where);
      // Borrowing room or laying the rows out moves rows that no edge of
      // the delta touched.
      std::vector<char> touched(static_cast<std::size_t>(n), 0);
      for (const std::vector<Edge>* list : {&d.removed, &d.added}) {
        for (const Edge& e : *list) {
          touched[static_cast<std::size_t>(e.a)] = 1;
          touched[static_cast<std::size_t>(e.b)] = 1;
        }
      }
      for (NodeId v = 0; v < n; ++v) {
        if (touched[static_cast<std::size_t>(v)] == 0 &&
            patched->neighbors(v).data() != before[static_cast<std::size_t>(v)]) {
          ++moved_rows;
          break;
        }
      }
      want = std::move(next);
    }
  }
  EXPECT_GE(deltas, 200);
  EXPECT_GE(hub_deltas, 80);
  // Every hub delta overflows its centre's row, which then borrows room
  // (first layouts and re-layouts count here too).
  EXPECT_GE(moved_rows, hub_deltas);
}

TEST(GraphApplyDelta, SecondOwnerGetsACopyAndKeepsItsGraph) {
  // An open graph (patched in place once) and a tight one: with a second
  // reference held, the result is a new object and the held graph keeps
  // its edges and rows.
  util::Rng rng(0x5ec0);
  const NodeId n = 40;
  const std::vector<Edge> base = randomEdges(rng, n, 90);
  for (const bool open : {false, true}) {
    GraphPtr g = std::make_shared<Graph>(n, base);
    std::vector<Edge> want = base;
    if (open) {
      const Delta d = randomDelta(rng, n, want, DeltaShape::kPaired);
      ASSERT_EQ(patchEdges(want, d.removed, d.added), d.removed.size());
      ASSERT_EQ(applyDelta(g, d.removed, d.added), g);
    }
    const GraphPtr held = g;
    const Delta d = randomDelta(rng, n, want, DeltaShape::kRemoveHeavy);
    std::vector<Edge> next = want;
    ASSERT_EQ(patchEdges(next, d.removed, d.added), d.removed.size());
    const GraphPtr patched = applyDelta(g, d.removed, d.added);
    EXPECT_NE(patched, g);
    expectGraphIs(*held, n, want, open ? "held open" : "held tight");
    expectGraphIs(*patched, n, next, open ? "copy of open" : "copy of tight");
  }
}

TEST(GraphApplyDelta, CopyReleasedOnAnotherThreadThenPatchedInPlace) {
  // A reader thread walks its copy of the graph, then drops it; once the
  // caller's reference is the only one left, the patch runs in place.
  // Under ThreadSanitizer this checks that the reader's walk
  // happens-before the patch's writes.
  const NodeId n = 64;
  std::vector<Edge> want;
  for (NodeId v = 1; v < n; ++v) {
    want.push_back({v / 2, v});
  }
  for (int rep = 0; rep < 20; ++rep) {
    GraphPtr g = std::make_shared<Graph>(n, want);
    std::size_t walked = 0;
    std::thread reader([copy = g, &walked]() mutable {
      for (NodeId v = 0; v < copy->numNodes(); ++v) {
        walked += copy->neighbors(v).size();
      }
      copy.reset();
    });
    while (g.use_count() != 1) {
      std::this_thread::yield();
    }
    const Edge removed{static_cast<NodeId>(rep + 1) / 2, rep + 1};
    const Edge added{0, rep + 1};
    const GraphPtr patched = applyDelta(g, std::span(&removed, 1),
                                        std::span(&added, 1), true);
    reader.join();
    EXPECT_EQ(walked, 2 * want.size());
    EXPECT_EQ(patched, g);
    ASSERT_EQ(patchEdges(want, std::span(&removed, 1), std::span(&added, 1)),
              1u);
    expectGraphIs(*patched, n, want, "rep " + std::to_string(rep));
  }
}

TopologySeq repeat(GraphPtr g, int rounds) {
  return TopologySeq(static_cast<std::size_t>(rounds), std::move(g));
}

TEST(Diameter, StaticPath) {
  // A static path of n nodes has dynamic diameter n-1.
  for (const NodeId n : {2, 5, 9}) {
    const auto topo = repeat(makePath(n), n + 2);
    EXPECT_EQ(allSourcesEccentricity(topo, 0), n - 1) << "n=" << n;
  }
}

TEST(Diameter, StaticStarIsTwo) {
  const auto topo = repeat(makeStar(8), 5);
  EXPECT_EQ(allSourcesEccentricity(topo, 0), 2);
}

TEST(Diameter, StaticCliqueIsOne) {
  const auto topo = repeat(makeClique(6), 3);
  EXPECT_EQ(allSourcesEccentricity(topo, 0), 1);
}

TEST(Diameter, SingleNodeIsZero) {
  const auto topo = repeat(std::make_shared<Graph>(1, std::vector<Edge>{}), 2);
  EXPECT_EQ(allSourcesEccentricity(topo, 0), 0);
}

TEST(Diameter, HorizonTooShortReturnsMinusOne) {
  const auto topo = repeat(makePath(10), 3);
  EXPECT_EQ(allSourcesEccentricity(topo, 0), -1);
  EXPECT_EQ(causalEccentricity(topo, 0, 0), -1);
}

TEST(Diameter, RotatingStarIsActuallySlow) {
  // Counter-intuitive but correct: a star whose center moves every round
  // has causal diameter Θ(n), NOT 2.  The old center loses its adjacency
  // before it can forward, so influence crawls along the center schedule
  // (or waits for the source's own center turn).
  TopologySeq topo;
  const NodeId n = 9;
  for (int r = 0; r < 3 * n; ++r) {
    topo.push_back(makeStar(n, static_cast<NodeId>(r % n)));
  }
  const int ecc = allSourcesEccentricity(topo, 0);
  EXPECT_GE(ecc, n - 1);
  EXPECT_LE(ecc, n + 1);
}

TEST(Diameter, AnchoredStarStaysConstant) {
  // With a permanent hub the dynamic diameter is 2 despite per-round churn.
  TopologySeq topo;
  const NodeId n = 9;
  for (int r = 0; r < 6; ++r) {
    topo.push_back(makeStar(n, 0));
  }
  EXPECT_EQ(allSourcesEccentricity(topo, 0), 2);
}

TEST(Diameter, CausalEccentricityMatchesAllSources) {
  const auto topo = repeat(makePath(7), 10);
  int worst = 0;
  for (NodeId v = 0; v < 7; ++v) {
    worst = std::max(worst, causalEccentricity(topo, v, 0));
  }
  EXPECT_EQ(worst, allSourcesEccentricity(topo, 0));
}

TEST(Diameter, DynamicDiameterOverStartRounds) {
  // Path for 12 rounds, then clique: starting late is faster, so the
  // diameter over all starts is governed by the earliest start.
  TopologySeq topo;
  for (int r = 0; r < 12; ++r) {
    topo.push_back(makePath(6));
  }
  for (int r = 0; r < 12; ++r) {
    topo.push_back(makeClique(6));
  }
  EXPECT_EQ(dynamicDiameter(topo, 3), 5);
  EXPECT_EQ(allSourcesEccentricity(topo, 12), 1);
}

TEST(Diameter, TimeDependentEdgeWave) {
  // Edge i–(i+1) exists only in round i+1.  Influence from node 0 rides the
  // wave and covers the path in n-1 rounds; node n-1's influence can never
  // reach node 0 (its edges lie in the past), so its eccentricity is -1
  // within the horizon.
  const NodeId n = 5;
  TopologySeq topo;
  for (int r = 1; r <= 2 * n; ++r) {
    std::vector<Edge> edges;
    if (r <= n - 1) {
      edges.push_back({static_cast<NodeId>(r - 1), static_cast<NodeId>(r)});
    } else {
      edges.push_back({0, 1});  // keep the graph non-empty
    }
    topo.push_back(std::make_shared<Graph>(n, std::move(edges)));
  }
  EXPECT_EQ(causalEccentricity(topo, 0, 0), n - 1);
  EXPECT_EQ(causalEccentricity(topo, n - 1, 0), -1);
}

TEST(CausalReach, BudgetRespected) {
  const auto topo = repeat(makePath(8), 10);
  const auto bits = causalReach(topo, 0, 0, 3);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(bitmapTest(bits, v), v <= 3) << "v=" << v;
  }
}

TEST(CausalReach, StartRoundOffset) {
  // Clique in round 1, then empty-ish path: starting at round 1 (0-based
  // start_round=1) sees only the later graphs.
  TopologySeq topo;
  topo.push_back(makeClique(4));
  topo.push_back(makePath(4));
  topo.push_back(makePath(4));
  const auto from0 = causalReach(topo, 0, 0, 1);
  EXPECT_TRUE(bitmapTest(from0, 3));
  const auto from1 = causalReach(topo, 0, 1, 1);
  EXPECT_FALSE(bitmapTest(from1, 3));
  EXPECT_TRUE(bitmapTest(from1, 1));
}

}  // namespace
}  // namespace dynet::net
