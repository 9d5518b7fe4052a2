// Per-round topology representation.
//
// A Graph is the (undirected, simple) topology of one round.  It is born
// complete: the constructor validates the edges and builds the CSR
// adjacency (per-node lists sorted ascending, by a counting sort) and the
// component count (by union-find) in two passes over the edges, so every
// accessor is a plain read.  applyDelta() derives a new Graph from an
// existing one by patching the edge list, the CSR rows and (when the
// delta allows it) the component count instead of rebuilding, for
// adversaries whose topology changes a few edges per round
// (docs/ARCHITECTURE.md, "Graphs are born complete" and "Incremental
// topology: delta-cache invariants").
//
// Thread-safety: a Graph never changes after construction, so a GraphPtr
// may be shared freely across threads (Monte Carlo trial workers, the
// parallel diameter solver) and across rounds and engines.
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
  /// re-sorting.  Inline for the delivery loops; an out-of-range v throws
  /// from a cold path (util/bitio.h describes the idiom).
  std::span<const NodeId> neighbors(NodeId v) const {
    if (!(v >= 0 && v < num_nodes_)) [[unlikely]] {
      neighborsFailed(v);
    }
    const auto row = static_cast<std::size_t>(v);
    const auto begin = static_cast<std::size_t>(adj_offsets_[row]);
    const auto end = static_cast<std::size_t>(adj_offsets_[row + 1]);
    return {adj_list_.data() + begin, end - begin};
  }

  bool connected() const { return component_count_ == 1; }
  bool hasEdge(NodeId a, NodeId b) const;

  /// Number of connected components.
  int componentCount() const { return component_count_; }

  /// New graph equal to this one with `removed` deleted and `added`
  /// inserted, derived incrementally: the edge list is patched by
  /// patchEdges() below (removed[i]'s slot is overwritten by added[i]
  /// while both lists last, extras appended or compacted), so an adversary
  /// whose rebuild emits edges in a stable order gets a byte-identical
  /// edges() sequence from the delta path.  The CSR adjacency bulk-copies
  /// every run of untouched rows and re-merges only the touched ones, and
  /// the component count is carried over when no edge was removed from a
  /// connected graph; a removal forces a full recount, and a delta larger
  /// than half the edge count is rebuilt like a fresh graph.  Requires:
  /// every removed edge present (exact (a,b) match), every added edge
  /// valid and not already present.
  ///
  /// `same_components = true` is a caller assertion that the delta leaves
  /// the component partition's *count* unchanged (e.g. a spanning-tree
  /// adversary re-attaching subtrees: the result is a tree, hence still
  /// connected).  It lets the component count carry across removals —
  /// the dominant per-round cost for sparse deltas — and is NOT verified;
  /// asserting it wrongly makes connected()/componentCount() lie.
  GraphPtr applyDelta(std::span<const Edge> removed,
                      std::span<const Edge> added,
                      bool same_components = false) const;

 private:
  // Tag for applyDelta's patch path, which knows the edges are good and
  // fills in the rows and the component count itself before returning.
  struct Unvalidated {};
  Graph(NodeId num_nodes, std::vector<Edge> edges, Unvalidated);

  [[noreturn, gnu::cold, gnu::noinline]] void neighborsFailed(NodeId v) const;
  void buildRows(std::span<std::int32_t> scratch);
  void countComponents();

  NodeId num_nodes_;
  std::vector<Edge> edges_;
  std::vector<std::int32_t> adj_offsets_;
  std::vector<NodeId> adj_list_;
  int component_count_ = 0;
};

/// The positional-patch rule, the one implementation behind
/// Graph::applyDelta and trace replay (dataset::applyPositionalPatch).
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
