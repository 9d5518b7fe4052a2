// In-memory trace model for the dataset subsystem.
//
// A *trace* is a finite timeline of topologies: the edge set of round 1
// plus one edge delta per subsequent round.  Text parsers (text_format.h)
// produce the intermediate TraceEvents form (edge activity intervals over
// compacted node ids); compile() normalizes that into a CompiledTrace whose
// per-round deltas feed net::applyDelta directly.  The compiled form is
// what the binary cache (compiled_format.h) serializes and what
// TraceAdversary replays, so everything downstream of compile() is
// byte-for-byte independent of which on-disk format the trace came from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/graph.h"
#include "sim/process.h"

namespace dynet::dataset {

/// One normalized edge-activity interval: edge active on trace rounds
/// [first, last], inclusive, 1-based.  Overlapping or touching intervals
/// for the same edge are merged by compile(); exact duplicates are legal
/// input (real event lists repeat contacts) and collapse to one interval.
struct EdgeInterval {
  net::Edge edge;  // normalized a < b
  sim::Round first = 1;
  sim::Round last = 1;
};

/// Parser output, before compilation.  Node ids are already compacted to
/// 0..num_nodes-1 in first-appearance order; `labels[id]` is the original
/// on-disk token for diagnostics and --trace-info.
struct TraceEvents {
  net::NodeId num_nodes = 0;
  sim::Round rounds = 0;  // compile() extends to max interval end
  std::vector<std::string> labels;
  std::vector<EdgeInterval> intervals;
  std::string source;               // file/dir name, for diagnostics
  std::uint64_t source_hash = 0;    // FNV-1a of the raw source bytes
  double bucket = 1.0;              // time-bucket width used while parsing
};

/// Edge delta between two consecutive trace rounds.  Both lists are sorted
/// by (a, b) and disjoint; applying them with net::applyDelta (or
/// applyPositionalPatch below) advances the edge list one round.
struct RoundDelta {
  std::vector<net::Edge> removed;
  std::vector<net::Edge> added;

  friend bool operator==(const RoundDelta&, const RoundDelta&) = default;
};

/// The compiled, replay-ready trace.  deltas[i] transitions the edge set
/// of round i+1 into that of round i+2, so deltas.size() == rounds - 1.
struct CompiledTrace {
  net::NodeId num_nodes = 0;
  sim::Round rounds = 0;
  std::vector<std::string> labels;   // empty when ids were never labeled
  std::vector<net::Edge> initial;    // round 1 edges, sorted by (a, b)
  std::vector<RoundDelta> deltas;
  double bucket = 1.0;
  std::uint64_t source_hash = 0;
  std::string source;  // not serialized; diagnostics only

  /// Total number of delta records across the timeline (adds + removes).
  std::size_t deltaRecords() const;

  friend bool operator==(const CompiledTrace& x, const CompiledTrace& y) {
    return x.num_nodes == y.num_nodes && x.rounds == y.rounds &&
           x.labels == y.labels && x.initial == y.initial &&
           x.deltas == y.deltas && x.bucket == y.bucket &&
           x.source_hash == y.source_hash;
  }
};

/// Density timeline + aggregates for --trace-info and the bench.
struct TraceSummary {
  net::NodeId num_nodes = 0;
  sim::Round rounds = 0;
  std::size_t initial_edges = 0;
  std::size_t delta_records = 0;
  std::size_t min_edges = 0;
  std::size_t max_edges = 0;
  double mean_edges = 0.0;
  std::vector<std::size_t> edges_per_round;  // index r-1 -> |E| at round r
};

TraceSummary summarize(const CompiledTrace& trace);

/// Normalizes parsed events into the compiled timeline.  Fails loudly
/// (DYNET_CHECK, naming events.source) on intervals that are out of range,
/// inverted, or self-loops.
CompiledTrace compile(const TraceEvents& events);

/// Deterministic synthetic trace for tests, fuzzing and benches: starts
/// from a random spanning-tree-ish edge set and churns `churn` edge
/// swaps per round.  Pure function of its arguments.
CompiledTrace randomTrace(net::NodeId n, sim::Round rounds, int churn,
                          std::uint64_t seed);

/// FNV-1a 64 over raw bytes, the one implementation (campaign::fnv1a64
/// calls it, so campaign depends on dataset, not the other way around).
/// The seeded overload continues a chain, for hashing multi-file sources
/// in canonical order.
std::uint64_t fnv1a64(std::string_view data);
std::uint64_t fnv1a64(std::string_view data, std::uint64_t state);

/// Applies one delta to an edge list by net::patchEdges, the positional-
/// patch rule net::applyDelta runs too: removed slots are found by
/// first match, paired with added edges in order, extra adds append,
/// extra removal holes compact by a stable shift.  TraceAdversary seeks
/// and serves topology() with it, so its full-topology path stays
/// value-identical to the engine's delta path.  Fails loudly, naming
/// `source` and `round`, on a removed edge that is not present.
void applyPositionalPatch(std::vector<net::Edge>& edges,
                          std::span<const net::Edge> removed,
                          std::span<const net::Edge> added,
                          const std::string& source, sim::Round round);

}  // namespace dynet::dataset
