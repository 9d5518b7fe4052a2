// Per-round topology representation.
//
// A Graph is the (undirected, simple) topology of one round.  Adjacency
// (CSR, per-node lists sorted ascending) and connectivity are computed
// lazily and cached, so adversaries that return the same Graph for many
// rounds pay once.  applyDelta() derives a new Graph from an existing one
// by patching the edge list and both caches instead of rebuilding, for
// adversaries whose topology changes a few edges per round
// (docs/ARCHITECTURE.md, "Incremental topology cache").
//
// Thread-safety: the lazy caches are built under std::call_once, so a
// GraphPtr may be shared freely across threads (Monte Carlo trial workers,
// the parallel diameter solver) even when several of them race on the first
// neighbors()/connected() call.  warm() forces both caches eagerly and
// warmed() reports (with one relaxed atomic load per cache) whether that
// already happened, so repeat warms of a shared graph are near-free; the
// engine warms every adversary-returned topology (sim/phase.h,
// AdversaryPhase) and the static adversaries warm at construction, so by
// the time a graph is visible to more than one thread it is typically
// already fully immutable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
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

  /// Neighbors of v, sorted ascending (requires the CSR index; built on
  /// first use).  The canonical ascending order lets delivery code that
  /// needs sender-sorted inboxes walk the list without re-sorting.
  std::span<const NodeId> neighbors(NodeId v) const;

  bool connected() const;
  bool hasEdge(NodeId a, NodeId b) const;

  /// Number of connected components.
  int componentCount() const;

  /// Eagerly builds every lazy cache (adjacency CSR, component count).
  /// Idempotent and thread-safe; after it returns the graph is fully
  /// immutable.  Adversaries that hand one GraphPtr to many rounds or many
  /// engines should warm it once up front (the engine also warms each
  /// round's topology as it is returned, skipping graphs that report
  /// warmed()).
  void warm() const;

  /// True once both lazy caches exist — warm() (or equivalent use) already
  /// ran.  One relaxed atomic load per cache; the engine's per-round warm
  /// of a shared pre-warmed graph reduces to this check.
  bool warmed() const {
    return adj_built_.load(std::memory_order_acquire) &&
           components_ready_.load(std::memory_order_acquire);
  }

  /// New graph equal to this one with `removed` deleted and `added`
  /// inserted, derived incrementally: the edge list is patched by
  /// patchEdges() below (removed[i]'s slot is overwritten by added[i]
  /// while both lists last, extras appended or compacted), so an adversary
  /// whose rebuild emits edges in a stable order gets a byte-identical
  /// edges() sequence from the delta path.  The CSR adjacency bulk-copies
  /// every run of untouched rows and re-merges only the touched ones, and
  /// the component cache is carried over when no edge was removed from a
  /// connected graph; a removal forces a full component recompute (lazily,
  /// on the next connected() call) and a delta larger than half the edge
  /// count falls back to a plain rebuild.  Requires: this graph warmed,
  /// every removed edge present (exact (a,b) match), every added edge
  /// valid and not already present.
  ///
  /// `same_components = true` is a caller assertion that the delta leaves
  /// the component partition's *count* unchanged (e.g. a spanning-tree
  /// adversary re-attaching subtrees: the result is a tree, hence still
  /// connected).  It lets the component cache carry across removals —
  /// the dominant per-round cost for sparse deltas — and is NOT verified;
  /// asserting it wrongly makes connected()/componentCount() lie.
  GraphPtr applyDelta(std::span<const Edge> removed,
                      std::span<const Edge> added,
                      bool same_components = false) const;

 private:
  struct Unvalidated {};  // tag: applyDelta already knows the edges are good
  Graph(NodeId num_nodes, std::vector<Edge> edges, Unvalidated);

  void buildAdjacency() const;    // raw builder, reached via adj_once_
  void computeComponents() const;  // raw builder, reached via components_once_
  void ensureAdjacency() const {
    if (adj_built_.load(std::memory_order_acquire)) {
      return;
    }
    std::call_once(adj_once_, [this] {
      buildAdjacency();
      adj_built_.store(true, std::memory_order_release);
    });
  }
  void ensureComponents() const {
    if (components_ready_.load(std::memory_order_acquire)) {
      return;
    }
    std::call_once(components_once_, [this] {
      computeComponents();
      components_ready_.store(true, std::memory_order_release);
    });
  }

  NodeId num_nodes_;
  std::vector<Edge> edges_;

  // Lazy caches, guarded by std::call_once so concurrent first use from
  // several threads is safe (the once_flags make Graph immovable, which is
  // fine: graphs live behind shared_ptr from birth).  The atomic flags are
  // the warmed() fast path; applyDelta() sets them at construction, before
  // the new graph is visible to any other thread.
  mutable std::once_flag adj_once_;
  mutable std::once_flag components_once_;
  mutable std::atomic<bool> adj_built_{false};
  mutable std::atomic<bool> components_ready_{false};
  mutable std::vector<std::int32_t> adj_offsets_;
  mutable std::vector<NodeId> adj_list_;
  mutable std::optional<int> component_count_;
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
