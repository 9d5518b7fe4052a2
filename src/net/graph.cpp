#include "net/graph.h"

#include <algorithm>
#include <cstdlib>
#include <tuple>

#include "util/check.h"

namespace dynet::net {

namespace {

/// Union-find for component counting over caller storage, one entry per
/// node: a root holds -(its set's size), any other node its parent.  Union
/// by size keeps the trees shallow in any edge order (a random tree's
/// (parent, child) edges would chain if the first root always went under
/// the second), and find() halves paths as it walks.
class UnionFind {
 public:
  explicit UnionFind(std::span<std::int32_t> parent) : parent_(parent) {
    std::fill(parent_.begin(), parent_.end(), -1);
  }

  NodeId find(NodeId x) {
    while (parent_[x] >= 0) {
      const NodeId up = parent_[x];
      if (parent_[up] < 0) {
        return up;
      }
      parent_[x] = parent_[up];
      x = parent_[up];
    }
    return x;
  }

  /// Merges the sets of a and b; false when they already were one.
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) {
      return false;
    }
    if (parent_[a] > parent_[b]) {  // b's set is the larger one
      std::swap(a, b);
    }
    parent_[a] += parent_[b];
    parent_[b] = a;
    return true;
  }

 private:
  std::span<std::int32_t> parent_;
};

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Finds every removed edge's slot in one pass over `edges`: slot[i] is
/// the first slot equal to removed[i] that no lower equal index claimed
/// (kNoSlot when there is none).  A bit filter of at least 64 bits per
/// removed edge rejects almost every other slot with one well-predicted
/// branch; the rest probe an open-addressing table of the distinct
/// removed edges, at most half full.  Each table entry holds the lowest
/// equal removed index still waiting for a slot, and the others queue
/// behind it in index order.
std::vector<std::size_t> locateRemoved(std::span<const Edge> edges,
                                       std::span<const Edge> removed) {
  std::vector<std::size_t> slot(removed.size(), kNoSlot);
  if (removed.empty()) {
    return slot;
  }
  constexpr std::int32_t kEmpty = -2;      // table entry unused
  constexpr std::int32_t kExhausted = -1;  // every equal removed edge placed
  struct Entry {
    Edge key;
    std::int32_t head = kEmpty;  // lowest equal removed index still waiting
  };
  int table_bits = 4;
  while ((std::size_t{1} << table_bits) < 2 * removed.size()) {
    ++table_bits;
  }
  const int filter_bits = std::max(12, table_bits + 5);
  const std::size_t mask = (std::size_t{1} << table_bits) - 1;
  const auto mix = [](const Edge& e) {
    const std::uint64_t key =
        (std::uint64_t{static_cast<std::uint32_t>(e.a)} << 32) |
        static_cast<std::uint32_t>(e.b);
    return key * 0x9e3779b97f4a7c15ULL;
  };
  std::vector<Entry> table(mask + 1);
  std::vector<std::uint64_t> filter(std::size_t{1} << (filter_bits - 6));
  std::vector<std::int32_t> next_equal(removed.size(), kExhausted);
  // Inserting from the back leaves each queue in ascending index order.
  for (std::size_t i = removed.size(); i-- > 0;) {
    const std::uint64_t h = mix(removed[i]);
    const std::uint64_t f = h >> (64 - filter_bits);
    filter[f >> 6] |= std::uint64_t{1} << (f & 63);
    auto t = static_cast<std::size_t>(h >> (64 - table_bits));
    while (table[t].head != kEmpty && !(table[t].key == removed[i])) {
      t = (t + 1) & mask;
    }
    if (table[t].head != kEmpty) {
      next_equal[i] = table[t].head;
    }
    table[t] = {removed[i], static_cast<std::int32_t>(i)};
  }
  std::size_t waiting = removed.size();
  for (std::size_t j = 0; j < edges.size(); ++j) {
    const Edge e = edges[j];
    const std::uint64_t h = mix(e);
    const std::uint64_t f = h >> (64 - filter_bits);
    if (((filter[f >> 6] >> (f & 63)) & 1) == 0) {
      continue;
    }
    for (auto t = static_cast<std::size_t>(h >> (64 - table_bits));
         table[t].head != kEmpty; t = (t + 1) & mask) {
      Entry& entry = table[t];
      if (entry.key == e) {
        if (entry.head != kExhausted) {
          const auto i = static_cast<std::size_t>(entry.head);
          slot[i] = j;
          entry.head = next_equal[i];
          if (--waiting == 0) {
            return slot;
          }
        }
        break;
      }
    }
  }
  return slot;
}

}  // namespace

std::size_t patchEdges(std::vector<Edge>& edges, std::span<const Edge> removed,
                       std::span<const Edge> added) {
  const std::vector<std::size_t> slot = locateRemoved(edges, removed);
  const auto missing = std::find(slot.begin(), slot.end(), kNoSlot);
  if (missing != slot.end()) {
    return static_cast<std::size_t>(missing - slot.begin());
  }
  const std::size_t paired = std::min(removed.size(), added.size());
  for (std::size_t i = 0; i < paired; ++i) {
    edges[slot[i]] = added[i];
  }
  edges.insert(edges.end(), added.begin() + static_cast<std::ptrdiff_t>(paired),
               added.end());
  if (removed.size() > paired) {
    std::vector<std::size_t> holes(
        slot.begin() + static_cast<std::ptrdiff_t>(paired), slot.end());
    std::sort(holes.begin(), holes.end());
    std::size_t out = holes.front();
    std::size_t next_hole = 0;
    for (std::size_t j = holes.front(); j < edges.size(); ++j) {
      if (next_hole < holes.size() && j == holes[next_hole]) {
        ++next_hole;
        continue;
      }
      edges[out++] = edges[j];
    }
    edges.resize(out);
  }
  return removed.size();
}

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {
  DYNET_CHECK(num_nodes_ >= 1) << "graph needs at least one node";
  const auto n = static_cast<std::size_t>(num_nodes_);
  // Every temporary in one block: union-find storage for n nodes, then
  // buildRows()'s n row cursors and 2m bucketed half-edges.
  std::vector<std::int32_t> scratch(2 * n + 2 * edges_.size());
  const std::span<std::int32_t> block(scratch);
  UnionFind uf(block.first(n));
  // One pass validates each edge, counts both endpoints' degrees and
  // unites them.
  adj_offsets_.assign(n + 1, 0);
  component_count_ = num_nodes_;
  for (const Edge& e : edges_) {
    DYNET_CHECK(e.a >= 0 && e.a < num_nodes_ && e.b >= 0 && e.b < num_nodes_)
        << "edge (" << e.a << "," << e.b << ") out of range, n=" << num_nodes_;
    DYNET_CHECK(e.a != e.b) << "self-loop at " << e.a;
    ++adj_offsets_[static_cast<std::size_t>(e.a) + 1];
    ++adj_offsets_[static_cast<std::size_t>(e.b) + 1];
    if (uf.unite(e.a, e.b)) {
      --component_count_;
    }
  }
  for (std::size_t i = 1; i <= n; ++i) {
    adj_offsets_[i] += adj_offsets_[i - 1];
  }
  buildRows(block.subspan(n));
}

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges, Unvalidated)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {}

void Graph::neighborsFailed(NodeId v) const {
  DYNET_CHECK(v >= 0 && v < num_nodes_) << "node " << v << " out of range";
  std::abort();  // unreachable: neighbors() calls this only for a bad v
}

// Canonical ascending order per node (delivery walks neighbors() as a
// ready-sorted sender list, and applyDelta() patches rows by merge), by a
// two-pass counting sort rather than a sort per row.  Pass 1 buckets every
// half-edge by its own endpoint, so bucket v lists v's neighbours in edge
// order.  Pass 2 walks the buckets in ascending v and appends v to the row
// of each neighbour in bucket v: every row then receives its entries in
// ascending order, parallel edges included.
void Graph::buildRows(std::span<std::int32_t> scratch) {
  const auto n = static_cast<std::size_t>(num_nodes_);
  const std::span<std::int32_t> cursor = scratch.first(n);
  const std::span<NodeId> bucket = scratch.subspan(n);
  std::copy(adj_offsets_.begin(), adj_offsets_.end() - 1, cursor.begin());
  for (const Edge& e : edges_) {
    bucket[static_cast<std::size_t>(cursor[e.a]++)] = e.b;
    bucket[static_cast<std::size_t>(cursor[e.b]++)] = e.a;
  }
  std::copy(adj_offsets_.begin(), adj_offsets_.end() - 1, cursor.begin());
  adj_list_.resize(bucket.size());
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const std::int32_t end = adj_offsets_[v + 1];
    for (std::int32_t k = adj_offsets_[v]; k < end; ++k) {
      adj_list_[static_cast<std::size_t>(cursor[bucket[k]]++)] = v;
    }
  }
}

void Graph::countComponents() {
  std::vector<std::int32_t> parent(static_cast<std::size_t>(num_nodes_));
  UnionFind uf(parent);
  component_count_ = num_nodes_;
  for (const Edge& e : edges_) {
    if (uf.unite(e.a, e.b)) {
      --component_count_;
    }
  }
}

bool Graph::hasEdge(NodeId a, NodeId b) const {
  const auto ns = neighbors(a);
  return std::binary_search(ns.begin(), ns.end(), b);
}

GraphPtr Graph::applyDelta(std::span<const Edge> removed,
                           std::span<const Edge> added,
                           bool same_components) const {
  for (const Edge& e : added) {
    DYNET_CHECK(e.a >= 0 && e.a < num_nodes_ && e.b >= 0 && e.b < num_nodes_)
        << "added edge (" << e.a << "," << e.b << ") out of range, n="
        << num_nodes_;
    DYNET_CHECK(e.a != e.b) << "added self-loop at " << e.a;
  }

  // Patch the edge list with positional replacement so the resulting
  // sequence matches what a from-scratch rebuild in the same stable order
  // would emit (trace byte-identity depends on edges() order).
  std::vector<Edge> edges = edges_;
  const std::size_t missing = patchEdges(edges, removed, added);
  DYNET_CHECK(missing == removed.size())
      << "removed edge (" << removed[missing].a << "," << removed[missing].b
      << ") not present";

  // A delta touching a large fraction of the graph is cheaper to rebuild
  // (docs/ARCHITECTURE.md, "Graphs are born complete").
  if ((removed.size() + added.size()) * 2 > edges_.size() + 2) {
    return std::make_shared<Graph>(num_nodes_, std::move(edges));
  }
  auto result = std::shared_ptr<Graph>(
      new Graph(num_nodes_, std::move(edges), Unvalidated{}));

  // Patch the CSR adjacency.  Each endpoint of a delta edge edits its
  // node's row; sorted, the edits group by node with the removed
  // neighbors first, each group ascending.
  struct RowEdit {
    NodeId v;
    bool add;
    NodeId u;
  };
  std::vector<RowEdit> edits;
  edits.reserve(2 * (removed.size() + added.size()));
  for (const Edge& e : removed) {
    edits.push_back({e.a, false, e.b});
    edits.push_back({e.b, false, e.a});
  }
  for (const Edge& e : added) {
    edits.push_back({e.a, true, e.b});
    edits.push_back({e.b, true, e.a});
  }
  std::sort(edits.begin(), edits.end(), [](const RowEdit& x, const RowEdit& y) {
    return std::tie(x.v, x.add, x.u) < std::tie(y.v, y.add, y.u);
  });

  std::vector<std::int32_t>& offsets = result->adj_offsets_;
  std::vector<NodeId>& list = result->adj_list_;
  offsets.reserve(static_cast<std::size_t>(num_nodes_) + 1);
  list.reserve(result->edges_.size() * 2);
  // Untouched rows [from, to) keep their (sorted) slices verbatim: one bulk
  // copy of the run, offsets shifted by the degree change so far.
  const auto copy_run = [&](NodeId from, NodeId to) {
    const auto begin = adj_offsets_.begin() + from;
    const auto end = adj_offsets_.begin() + to;
    const std::int32_t shift = static_cast<std::int32_t>(list.size()) - *begin;
    const std::size_t at = offsets.size();
    offsets.insert(offsets.end(), begin, end);
    if (shift != 0) {
      for (std::size_t k = at; k < offsets.size(); ++k) {
        offsets[k] += shift;
      }
    }
    list.insert(list.end(), adj_list_.begin() + *begin,
                adj_list_.begin() + *end);
  };
  NodeId next = 0;
  for (std::size_t k = 0; k < edits.size();) {
    const NodeId v = edits[k].v;
    copy_run(next, v);
    next = v + 1;
    std::size_t added_at = k;
    while (added_at < edits.size() && edits[added_at].v == v &&
           !edits[added_at].add) {
      ++added_at;
    }
    std::size_t group_end = added_at;
    while (group_end < edits.size() && edits[group_end].v == v) {
      ++group_end;
    }
    // Touched row: the old row minus its removed neighbors (one per
    // edge), merged with the added ones; both edit lists are ascending.
    offsets.push_back(static_cast<std::int32_t>(list.size()));
    std::size_t gone = k;
    std::size_t add = added_at;
    for (const NodeId u : neighbors(v)) {
      if (gone < added_at && edits[gone].u == u) {
        ++gone;
        continue;
      }
      for (; add < group_end && edits[add].u < u; ++add) {
        list.push_back(edits[add].u);
      }
      list.push_back(u);
    }
    for (; add < group_end; ++add) {
      list.push_back(edits[add].u);
    }
    DYNET_CHECK(gone == added_at) << "removed edge missing from node " << v
                                  << "'s adjacency";
    k = group_end;
  }
  copy_run(next, num_nodes_);
  offsets.push_back(static_cast<std::int32_t>(list.size()));

  // Components: adding edges to a connected graph keeps it connected; any
  // removal (or a disconnected base) forces a full recount — unless the
  // caller asserted the component count survives this delta.
  if (same_components || (removed.empty() && component_count_ == 1)) {
    result->component_count_ = component_count_;
  } else {
    result->countComponents();
  }
  return result;
}

bool connectedOn(const Graph& g, std::span<const char> alive) {
  const NodeId n = g.numNodes();
  DYNET_CHECK(static_cast<std::size_t>(n) == alive.size())
      << "alive mask size " << alive.size() << " != " << n << " nodes";
  NodeId live = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (alive[static_cast<std::size_t>(v)] != 0) {
      ++live;
    }
  }
  if (live <= 1) {
    return true;
  }
  std::vector<std::int32_t> parent(alive.size());
  UnionFind uf(parent);
  NodeId components = live;
  for (const Edge& e : g.edges()) {
    if (alive[static_cast<std::size_t>(e.a)] != 0 &&
        alive[static_cast<std::size_t>(e.b)] != 0 && uf.unite(e.a, e.b)) {
      --components;
    }
  }
  return components == 1;
}

GraphPtr makePath(NodeId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i + 1 < n; ++i) {
    edges.push_back({i, i + 1});
  }
  return std::make_shared<Graph>(n, std::move(edges));
}

GraphPtr makeRing(NodeId n) {
  DYNET_CHECK(n >= 3) << "ring needs >= 3 nodes";
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i + 1 < n; ++i) {
    edges.push_back({i, i + 1});
  }
  edges.push_back({n - 1, 0});
  return std::make_shared<Graph>(n, std::move(edges));
}

GraphPtr makeStar(NodeId n, NodeId center) {
  DYNET_CHECK(center >= 0 && center < n) << "bad star center";
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId i = 0; i < n; ++i) {
    if (i != center) {
      edges.push_back({center, i});
    }
  }
  return std::make_shared<Graph>(n, std::move(edges));
}

GraphPtr makeClique(NodeId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      edges.push_back({i, j});
    }
  }
  return std::make_shared<Graph>(n, std::move(edges));
}

GraphPtr makeTorus(NodeId rows, NodeId cols) {
  DYNET_CHECK(rows >= 2 && cols >= 2) << "torus needs >= 2x2";
  const NodeId n = rows * cols;
  std::vector<Edge> edges;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      const NodeId right = id(r, (c + 1) % cols);
      const NodeId down = id((r + 1) % rows, c);
      if (right != id(r, c)) {
        edges.push_back({id(r, c), right});
      }
      if (down != id(r, c)) {
        edges.push_back({id(r, c), down});
      }
    }
  }
  // Deduplicate (2-wide dimensions create duplicate wrap edges).
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    return std::pair(std::min(x.a, x.b), std::max(x.a, x.b)) <
           std::pair(std::min(y.a, y.b), std::max(y.a, y.b));
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const Edge& x, const Edge& y) {
                            return std::pair(std::min(x.a, x.b), std::max(x.a, x.b)) ==
                                   std::pair(std::min(y.a, y.b), std::max(y.a, y.b));
                          }),
              edges.end());
  return std::make_shared<Graph>(n, std::move(edges));
}

}  // namespace dynet::net
