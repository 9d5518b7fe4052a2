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
  bounds_.assign(n + 1, 0);
  component_count_ = num_nodes_;
  for (const Edge& e : edges_) {
    DYNET_CHECK(e.a >= 0 && e.a < num_nodes_ && e.b >= 0 && e.b < num_nodes_)
        << "edge (" << e.a << "," << e.b << ") out of range, n=" << num_nodes_;
    DYNET_CHECK(e.a != e.b) << "self-loop at " << e.a;
    ++bounds_[static_cast<std::size_t>(e.a) + 1];
    ++bounds_[static_cast<std::size_t>(e.b) + 1];
    if (uf.unite(e.a, e.b)) {
      --component_count_;
    }
  }
  for (std::size_t i = 1; i <= n; ++i) {
    bounds_[i] += bounds_[i - 1];
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
  std::copy(bounds_.begin(), bounds_.end() - 1, cursor.begin());
  for (const Edge& e : edges_) {
    bucket[static_cast<std::size_t>(cursor[e.a]++)] = e.b;
    bucket[static_cast<std::size_t>(cursor[e.b]++)] = e.a;
  }
  std::copy(bounds_.begin(), bounds_.end() - 1, cursor.begin());
  list_.resize(bucket.size());
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const std::int32_t end = bounds_[v + 1];
    for (std::int32_t k = bounds_[v]; k < end; ++k) {
      list_[static_cast<std::size_t>(cursor[bucket[k]]++)] = v;
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

void Graph::checkAdded(std::span<const Edge> added) const {
  for (const Edge& e : added) {
    DYNET_CHECK(e.a >= 0 && e.a < num_nodes_ && e.b >= 0 && e.b < num_nodes_)
        << "added edge (" << e.a << "," << e.b << ") out of range, n="
        << num_nodes_;
    DYNET_CHECK(e.a != e.b) << "added self-loop at " << e.a;
  }
}

void Graph::removedMissing(const Edge& e) const {
  DYNET_CHECK(false) << "removed edge (" << e.a << "," << e.b
                     << ") not present";
  std::abort();  // unreachable: DYNET_CHECK(false) throws
}

GraphPtr applyDelta(const GraphPtr& g, std::span<const Edge> removed,
                    std::span<const Edge> added, bool same_components) {
  DYNET_CHECK(g != nullptr) << "applyDelta on a null graph";
  if (g.use_count() == 1) {
    // use_count() is a relaxed load, so it orders nothing by itself.
    // Taking and dropping a reference is an acquire-release update of the
    // same count that another thread's release of its copy wrote, so
    // every read made through that copy happens-before the writes below.
    // (An acquire fence would do the same, but ThreadSanitizer does not
    // model fences and reports the race this rules out.)
    { const GraphPtr sync = g; }
    // Graphs are made by std::make_shared<Graph>: the const is GraphPtr's,
    // not the object's, so writing through the sole owner is defined.
    const_cast<Graph&>(*g).patchInPlace(removed, added, same_components);
    return g;
  }
  return g->patchedCopy(removed, added, same_components);
}

GraphPtr Graph::patchedCopy(std::span<const Edge> removed,
                            std::span<const Edge> added,
                            bool same_components) const {
  checkAdded(added);

  // Patch the edge list with positional replacement so the resulting
  // sequence matches what a from-scratch rebuild in the same stable order
  // would emit (trace byte-identity depends on edges() order).
  std::vector<Edge> edges = edges_;
  const std::size_t missing = patchEdges(edges, removed, added);
  if (missing != removed.size()) {
    removedMissing(removed[missing]);
  }

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

  std::vector<std::int32_t>& offsets = result->bounds_;
  std::vector<NodeId>& list = result->list_;
  offsets.reserve(static_cast<std::size_t>(num_nodes_) + 1);
  list.reserve(result->edges_.size() * 2);
  // Untouched rows [from, to) keep their (sorted) slices verbatim.  Tight
  // rows are one bulk copy of the run, offsets shifted by the degree
  // change so far; open rows leave gaps, so they go one row at a time.
  const auto copy_run = [&](NodeId from, NodeId to) {
    if (row_shift_ != 0) {
      for (NodeId v = from; v < to; ++v) {
        offsets.push_back(static_cast<std::int32_t>(list.size()));
        const std::span<const NodeId> row = neighbors(v);
        list.insert(list.end(), row.begin(), row.end());
      }
      return;
    }
    const auto begin = bounds_.begin() + from;
    const auto end = bounds_.begin() + to;
    const std::int32_t shift = static_cast<std::int32_t>(list.size()) - *begin;
    const std::size_t at = offsets.size();
    offsets.insert(offsets.end(), begin, end);
    if (shift != 0) {
      for (std::size_t k = at; k < offsets.size(); ++k) {
        offsets[k] += shift;
      }
    }
    list.insert(list.end(), list_.begin() + *begin, list_.begin() + *end);
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

namespace {

/// Rows per block of an open layout.  A block's rows start out packed,
/// with the block's free room after its last row: one place per row, more
/// for high-degree rows, which gain entries faster.  A full row borrows a
/// place from the nearest row with one to spare, looking up to a block's
/// length away (Graph::makeRoom), so its block's room is always in reach.
constexpr std::size_t kBlockRows = 64;

std::size_t spareFor(std::size_t degree) { return 1 + degree / 8; }

// Begins of an open layout for rows of the given degrees: packed within
// each block of kBlockRows rows, with the block's spare room after it.
// Returns the places the layout needs.
template <typename DegreeOf>
std::size_t layoutRows(std::size_t n, DegreeOf degree_of,
                       std::span<std::int32_t> begin) {
  std::size_t at = 0;
  std::size_t spare = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t degree = degree_of(v);
    begin[v] = static_cast<std::int32_t>(at);
    at += degree;
    spare += spareFor(degree);
    if (v % kBlockRows == kBlockRows - 1 || v + 1 == n) {
      at += spare;
      spare = 0;
    }
  }
  return at;
}

}  // namespace

// The open layout from a tight one: a block's rows stay packed, so each
// block is one copy, and one pass over the edge slots appends each slot
// to both endpoints' slot rows, so every slot row comes out ascending.
// The tight offsets serve as that pass's cursors.
void Graph::openRows() {
  const auto n = static_cast<std::size_t>(num_nodes_);
  std::vector<std::int32_t> bounds(2 * n);
  const std::span<std::int32_t> begin(bounds.data() + n, n);
  const std::size_t room = layoutRows(
      n,
      [&](std::size_t v) {
        return static_cast<std::size_t>(bounds_[v + 1] - bounds_[v]);
      },
      begin);
  std::vector<NodeId> list(room);
  for (std::size_t first = 0; first < n; first += kBlockRows) {
    const std::size_t last = std::min(n, first + kBlockRows);
    std::copy(list_.begin() + bounds_[first], list_.begin() + bounds_[last],
              list.begin() + begin[first]);
  }
  list_ = std::move(list);
  slots_.resize(room);
  // begin[] sits in the upper half of bounds: spread it into pairs from
  // the front, where every pair lands at or below the begins it reads.
  for (std::size_t v = 0; v < n; ++v) {
    const std::int32_t at = begin[v];
    bounds[2 * v + 1] = at + (bounds_[v + 1] - bounds_[v]);
    bounds[2 * v] = at;
    bounds_[v] = at;
  }
  std::int32_t* const cursor = bounds_.data();
  std::int32_t* const slots = slots_.data();
  for (std::size_t j = 0; j < edges_.size(); ++j) {
    const Edge e = edges_[j];
    slots[cursor[e.a]++] = static_cast<std::int32_t>(j);
    slots[cursor[e.b]++] = static_cast<std::int32_t>(j);
  }
  bounds_ = std::move(bounds);
  row_shift_ = 1;
}

std::size_t Graph::rowLimit(std::size_t v) const {
  return v + 1 < static_cast<std::size_t>(num_nodes_)
             ? static_cast<std::size_t>(bounds_[2 * v + 2])
             : list_.size();
}

// Moves rows [first, last] of an open graph `by` places (right when
// positive), both arrays, keeping the gaps between them.
void Graph::shiftRows(std::size_t first, std::size_t last, std::ptrdiff_t by) {
  const auto from = static_cast<std::ptrdiff_t>(bounds_[2 * first]);
  const auto to = static_cast<std::ptrdiff_t>(bounds_[2 * last + 1]);
  for (auto* column : {&list_, &slots_}) {
    const auto begin = column->begin();
    if (by > 0) {
      std::copy_backward(begin + from, begin + to, begin + to + by);
    } else {
      std::copy(begin + from, begin + to, begin + from + by);
    }
  }
  for (std::size_t w = 2 * first; w <= 2 * last + 1; ++w) {
    bounds_[w] += static_cast<std::int32_t>(by);
  }
}

// Frees one place after full open row v: the rows between v and the
// nearest row within a block's reach that has a place to spare move one
// place over (right of v, rightwards; up to v, leftwards).  When no row in
// reach has one, every row is laid out afresh first, which leaves a
// block's spare room within reach of every row.
void Graph::makeRoom(std::size_t v) {
  const auto n = static_cast<std::size_t>(num_nodes_);
  const auto spare = [&](std::size_t w) {
    return rowLimit(w) > static_cast<std::size_t>(bounds_[2 * w + 1]);
  };
  for (int pass = 0; pass < 2; ++pass) {
    if (spare(v)) {
      return;  // the fresh layout gave v its block's spare room
    }
    for (std::size_t d = 1; d < kBlockRows; ++d) {
      if (v + d < n && spare(v + d)) {
        shiftRows(v + 1, v + d, 1);
        return;
      }
      if (d <= v && spare(v - d)) {
        shiftRows(v - d + 1, v, -1);
        return;
      }
    }
    relayout();
  }
  std::abort();  // unreachable: the fresh layout leaves room in reach
}

// Lays every row of an open graph out afresh, in place: the arrays grow
// only when the rows need more room than they hold, one array at a time,
// and the rows move within them.  Rows that move left go in ascending
// order, then rows that move right in descending order, so no row lands
// on one that has not moved yet and no second copy of the rows is made.
void Graph::relayout() {
  const auto n = static_cast<std::size_t>(num_nodes_);
  std::vector<std::int32_t> begin(n);
  const std::size_t room = layoutRows(
      n,
      [&](std::size_t v) {
        return static_cast<std::size_t>(bounds_[2 * v + 1] - bounds_[2 * v]);
      },
      begin);
  if (room > list_.size()) {
    list_.reserve(room);
    list_.resize(room);
    slots_.reserve(room);
    slots_.resize(room);
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (begin[v] < bounds_[2 * v]) {
      shiftRows(v, v, begin[v] - bounds_[2 * v]);
    }
  }
  for (std::size_t v = n; v-- > 0;) {
    if (begin[v] > bounds_[2 * v]) {
      shiftRows(v, v, begin[v] - bounds_[2 * v]);
    }
  }
}

// Removes neighbor u and slot `slot` from open row v, which holds both.
void Graph::eraseEntry(NodeId v, NodeId u, std::int32_t slot) {
  const auto row = static_cast<std::size_t>(v) * 2;
  const auto begin = static_cast<std::ptrdiff_t>(bounds_[row]);
  const auto end = static_cast<std::ptrdiff_t>(bounds_[row + 1]--);
  const auto list = list_.begin();
  const auto at = std::lower_bound(list + begin, list + end, u);
  std::copy(at + 1, list + end, at);
  const auto slots = slots_.begin();
  const auto slot_at = std::lower_bound(slots + begin, slots + end, slot);
  std::copy(slot_at + 1, slots + end, slot_at);
}

// Inserts neighbor u and slot `slot` into open row v, keeping both
// ascending.
void Graph::insertEntry(NodeId v, NodeId u, std::int32_t slot) {
  const auto row = static_cast<std::size_t>(v) * 2;
  if (static_cast<std::size_t>(bounds_[row + 1]) ==
      rowLimit(static_cast<std::size_t>(v))) {
    makeRoom(static_cast<std::size_t>(v));
  }
  const auto begin = static_cast<std::ptrdiff_t>(bounds_[row]);
  const auto end = static_cast<std::ptrdiff_t>(bounds_[row + 1]++);
  const auto list = list_.begin();
  const auto at = std::upper_bound(list + begin, list + end, u);
  std::copy_backward(at, list + end, list + end + 1);
  *at = u;
  const auto slots = slots_.begin();
  const auto slot_at = std::lower_bound(slots + begin, slots + end, slot);
  std::copy_backward(slot_at, slots + end, slots + end + 1);
  *slot_at = slot;
}

// Everything that can fail runs before the first write: the added edges
// are checked and every removed edge's slot is located, so a bad delta
// leaves the graph's value as it was (the first call may still have laid
// the rows out, which changes no accessor's result).
void Graph::patchInPlace(std::span<const Edge> removed,
                         std::span<const Edge> added, bool same_components) {
  checkAdded(added);
  if ((removed.size() + added.size()) * 2 > edges_.size() + 2) {
    const std::size_t missing = patchEdges(edges_, removed, added);
    if (missing != removed.size()) {
      removedMissing(removed[missing]);
    }
    *this = Graph(num_nodes_, std::move(edges_));
    return;
  }
  if (row_shift_ == 0) {
    openRows();
  }

  // Locate: removed[i] takes the lowest slot holding exactly (a, b) that
  // no lower equal removed index took (patchEdges' first-match rule).
  // Row a's slots ascend, so removed[i] takes the match whose rank is the
  // number of equal removed edges before it.
  std::vector<std::size_t> order(removed.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return std::tie(removed[x].a, removed[x].b, x) <
           std::tie(removed[y].a, removed[y].b, y);
  });
  std::vector<std::int32_t> slot(removed.size());
  std::vector<std::int32_t> rank(removed.size(), 0);
  for (std::size_t k = 1; k < order.size(); ++k) {
    if (removed[order[k]] == removed[order[k - 1]]) {
      rank[order[k]] = rank[order[k - 1]] + 1;
    }
  }
  for (std::size_t i = 0; i < removed.size(); ++i) {
    const Edge e = removed[i];
    if (!(e.a >= 0 && e.a < num_nodes_ && e.b >= 0 && e.b < num_nodes_)) {
      removedMissing(e);
    }
    const auto row = static_cast<std::size_t>(e.a) * 2;
    const auto end = static_cast<std::size_t>(bounds_[row + 1]);
    auto at = static_cast<std::size_t>(bounds_[row]);
    for (std::int32_t skip = rank[i]; at < end; ++at) {
      if (edges_[static_cast<std::size_t>(slots_[at])] == e && skip-- == 0) {
        break;
      }
    }
    if (at == end) {
      removedMissing(e);
    }
    slot[i] = slots_[at];
  }

  const std::size_t paired = std::min(removed.size(), added.size());

  // Write: the removed half-edges leave their rows, the edge list takes
  // the positional patch, and the added half-edges enter their rows under
  // their final slots, each row borrowing a place when it is full.
  for (std::size_t i = 0; i < removed.size(); ++i) {
    eraseEntry(removed[i].a, removed[i].b, slot[i]);
    eraseEntry(removed[i].b, removed[i].a, slot[i]);
  }
  for (std::size_t i = 0; i < paired; ++i) {
    edges_[static_cast<std::size_t>(slot[i])] = added[i];
  }
  for (std::size_t i = paired; i < added.size(); ++i) {
    slot.push_back(static_cast<std::int32_t>(edges_.size()));
    edges_.push_back(added[i]);
  }
  if (removed.size() > paired) {
    // Extra removals close their holes by a stable shift, and every slot
    // above a hole, in the rows and in the paired adds, moves down by the
    // holes below it.
    std::vector<std::int32_t> holes(
        slot.begin() + static_cast<std::ptrdiff_t>(paired), slot.end());
    std::sort(holes.begin(), holes.end());
    std::size_t out = static_cast<std::size_t>(holes.front());
    std::size_t next_hole = 0;
    for (std::size_t j = out; j < edges_.size(); ++j) {
      if (next_hole < holes.size() &&
          j == static_cast<std::size_t>(holes[next_hole])) {
        ++next_hole;
        continue;
      }
      edges_[out++] = edges_[j];
    }
    edges_.resize(out);
    const auto shifted = [&](std::int32_t s) {
      return s - static_cast<std::int32_t>(
                     std::lower_bound(holes.begin(), holes.end(), s) -
                     holes.begin());
    };
    for (std::size_t v = 0; v < static_cast<std::size_t>(num_nodes_); ++v) {
      for (std::int32_t k = bounds_[2 * v]; k < bounds_[2 * v + 1]; ++k) {
        std::int32_t& s = slots_[static_cast<std::size_t>(k)];
        s = shifted(s);
      }
    }
    for (std::size_t i = 0; i < paired; ++i) {
      slot[i] = shifted(slot[i]);
    }
  }
  for (std::size_t i = 0; i < added.size(); ++i) {
    const std::int32_t s = slot[i < paired ? i : removed.size() + i - paired];
    insertEntry(added[i].a, added[i].b, s);
    insertEntry(added[i].b, added[i].a, s);
  }

  // Components, by the rule of the copy path.
  if (!(same_components || (removed.empty() && component_count_ == 1))) {
    countComponents();
  }
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
