// Per-round topology representation.
//
// A Graph is the (undirected) topology of one round.  It is born complete:
// the constructor validates the edges and builds the CSR adjacency
// (per-node lists sorted ascending, by a counting sort) and the component
// count (by union-find) in two passes over the edges, so every accessor is
// a plain read.  net::applyDelta() below turns a round's graph into the
// next one for adversaries whose topology changes a few edges per round:
// it patches a graph that only the caller holds in place, and derives a
// new graph from any other (docs/ARCHITECTURE.md, "Graphs are born
// complete" and "Incremental topology: delta-cache invariants").
//
// Thread-safety: a graph never changes while anyone else holds it.  Only
// applyDelta writes to a Graph after construction, and only when the
// GraphPtr it is handed is the sole owner, so a GraphPtr may be shared
// freely across threads (Monte Carlo trial workers, the parallel diameter
// solver) and across rounds and engines: every other holder sees a graph
// that stays as it was.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace dynet::net {

using NodeId = std::int32_t;

struct Edge {
  NodeId a;
  NodeId b;
  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph;
using GraphPtr = std::shared_ptr<const Graph>;

class Graph {
 public:
  Graph(NodeId num_nodes, std::vector<Edge> edges);

  NodeId numNodes() const { return num_nodes_; }
  std::span<const Edge> edges() const { return edges_; }
  std::size_t numEdges() const { return edges_.size(); }

  /// Neighbors of v, sorted ascending.  The canonical ascending order lets
  /// delivery code that needs sender-sorted inboxes walk the list without
  /// re-sorting.  Inline for the delivery loops, and the same two loads
  /// for either row layout (see bounds_ below); an out-of-range v throws
  /// from a cold path (util/bitio.h describes the idiom).
  std::span<const NodeId> neighbors(NodeId v) const {
    if (!(v >= 0 && v < num_nodes_)) [[unlikely]] {
      neighborsFailed(v);
    }
    const std::size_t at = static_cast<std::size_t>(v) << row_shift_;
    const auto begin = static_cast<std::size_t>(bounds_[at]);
    const auto end = static_cast<std::size_t>(bounds_[at + 1]);
    return {list_.data() + begin, end - begin};
  }

  bool connected() const { return component_count_ == 1; }
  bool hasEdge(NodeId a, NodeId b) const;

  /// Number of connected components.
  int componentCount() const { return component_count_; }

 private:
  friend GraphPtr applyDelta(const GraphPtr& g, std::span<const Edge> removed,
                             std::span<const Edge> added, bool same_components);

  // Tag for the copy path, which knows the edges are good and fills in
  // the rows and the component count itself before returning.
  struct Unvalidated {};
  Graph(NodeId num_nodes, std::vector<Edge> edges, Unvalidated);

  [[noreturn, gnu::cold, gnu::noinline]] void neighborsFailed(NodeId v) const;
  void buildRows(std::span<std::int32_t> scratch);
  void countComponents();
  void checkAdded(std::span<const Edge> added) const;
  [[noreturn, gnu::cold]] void removedMissing(const Edge& e) const;

  // The two ways applyDelta derives the next round's graph.
  GraphPtr patchedCopy(std::span<const Edge> removed,
                       std::span<const Edge> added, bool same_components) const;
  void patchInPlace(std::span<const Edge> removed, std::span<const Edge> added,
                    bool same_components);

  // The open layout behind patchInPlace.
  void openRows();
  std::size_t rowLimit(std::size_t v) const;
  void shiftRows(std::size_t first, std::size_t last, std::ptrdiff_t by);
  void makeRoom(std::size_t v);
  void relayout();
  void eraseEntry(NodeId v, NodeId u, std::int32_t slot);
  void insertEntry(NodeId v, NodeId u, std::int32_t slot);

  NodeId num_nodes_;
  std::vector<Edge> edges_;
  // Row bounds.  A tight graph (row_shift_ 0, every graph a constructor
  // or the copy path builds) keeps n + 1 offsets: row v is list_[bounds_[v],
  // bounds_[v + 1]).  An open graph (row_shift_ 1, laid out by the first
  // in-place patch) keeps a {begin, end} pair per row, bounds_[2v] and
  // bounds_[2v + 1], with free room up to the next row's begin (the last
  // row's up to list_.size()).  Its edge-slot index is slots_: over the
  // same range as v's neighbors, the edges() slots of v's edges, ascending.
  unsigned row_shift_ = 0;
  std::vector<std::int32_t> bounds_;
  std::vector<NodeId> list_;
  std::vector<std::int32_t> slots_;  // empty while tight
  int component_count_ = 0;
};

/// The next round's graph: `g` with `removed` deleted and `added`
/// inserted, by the positional-patch rule of patchEdges() below
/// (removed[i]'s slot is overwritten by added[i] while both lists last,
/// extras appended or compacted), so an adversary whose rebuild emits
/// edges in a stable order gets a byte-identical edges() sequence from
/// the delta path.  Requires every removed edge present (exact (a,b)
/// match) and every added edge in range and not a self-loop; otherwise it
/// throws, leaving `g`'s edges, rows and component count as they were.
///
/// Ownership decides the cost.  When `g` is the only reference to its
/// graph, that graph is patched in place and `g` is returned: a removed
/// edge is found through the edge-slot index (its first endpoint's list of
/// edge slots) and every touched row is edited by a shift within it, so a
/// round costs O(changed edges x degree).  The first such patch lays the
/// rows and the index out once, in linear passes; a full row borrows a
/// place from a nearby row, and only when none has one is every row
/// re-spaced in place.  When anyone else holds the graph, it stays
/// untouched and the result is a new, tight graph (no spare room, no
/// index): the edge list is copied and patched, the CSR bulk-copies every
/// run of untouched rows and re-merges only the touched ones.  Either way,
/// a delta larger than half the edge count is rebuilt like a fresh graph.
///
/// The component count is carried over when no edge was removed from a
/// connected graph; a removal forces a full recount.  `same_components =
/// true` is a caller assertion that the delta leaves the component
/// partition's *count* unchanged (e.g. a spanning-tree adversary
/// re-attaching subtrees: the result is a tree, hence still connected).
/// It lets the count carry across removals — the dominant per-round cost
/// for sparse deltas — and is NOT verified; asserting it wrongly makes
/// connected()/componentCount() lie.
GraphPtr applyDelta(const GraphPtr& g, std::span<const Edge> removed,
                    std::span<const Edge> added, bool same_components = false);

/// The positional-patch rule on an edge vector, behind applyDelta's copy
/// path and trace replay (dataset::applyPositionalPatch), and the
/// reference the in-place path is tested against.
/// Each removed[i] claims the first slot of `edges` equal to it (exact
/// (a,b) match) that no removed[j], j < i, claimed; added[i] overwrites
/// removed[i]'s slot while both lists last, extra adds append in order,
/// and extra removal holes close by a stable shift.  One pass over the
/// slots locates every removed edge.  Returns removed.size() on success;
/// otherwise the index of the first removed edge without a slot, with
/// `edges` left untouched.
std::size_t patchEdges(std::vector<Edge>& edges, std::span<const Edge> removed,
                       std::span<const Edge> added);

/// Connectivity of the subgraph induced by nodes with alive[v] != 0 (edges
/// with a dead endpoint are unusable).  Vacuously true for zero or one live
/// node.  Used by the fault-injecting engine, whose relaxed model invariant
/// only requires the adversary to keep the *live* nodes connected.
bool connectedOn(const Graph& g, std::span<const char> alive);

/// Convenience constructors used by adversaries and tests.
GraphPtr makePath(NodeId n);
GraphPtr makeRing(NodeId n);
GraphPtr makeStar(NodeId n, NodeId center = 0);
GraphPtr makeClique(NodeId n);
/// 2-D torus on an r x c grid (n = r*c).
GraphPtr makeTorus(NodeId rows, NodeId cols);

}  // namespace dynet::net
