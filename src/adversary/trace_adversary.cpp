#include "adversary/trace_adversary.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace dynet::adv {

namespace {

bool isSpinePair(const net::Edge& e) { return e.b == e.a + 1; }

/// Drops spine pairs from a delta list (the spine is pinned present).
std::vector<net::Edge> filterSpine(const std::vector<net::Edge>& edges) {
  std::vector<net::Edge> out;
  out.reserve(edges.size());
  for (const net::Edge& e : edges) {
    if (!isSpinePair(e)) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace

TraceReplayOptions::EndPolicy parseEndPolicy(const std::string& name) {
  if (name == "wrap") {
    return TraceReplayOptions::EndPolicy::kWrap;
  }
  if (name == "clamp") {
    return TraceReplayOptions::EndPolicy::kClamp;
  }
  if (name == "mirror") {
    return TraceReplayOptions::EndPolicy::kMirror;
  }
  DYNET_CHECK(false) << "unknown trace end policy '" << name
                     << "' (want wrap, clamp, or mirror)";
  __builtin_unreachable();
}

std::string endPolicyName(TraceReplayOptions::EndPolicy policy) {
  switch (policy) {
    case TraceReplayOptions::EndPolicy::kWrap:
      return "wrap";
    case TraceReplayOptions::EndPolicy::kClamp:
      return "clamp";
    case TraceReplayOptions::EndPolicy::kMirror:
      return "mirror";
  }
  return "?";
}

TraceAdversary::TraceAdversary(
    std::shared_ptr<const dataset::CompiledTrace> trace,
    const TraceReplayOptions& options)
    : trace_(std::move(trace)), options_(options) {
  DYNET_CHECK(trace_ != nullptr) << "TraceAdversary needs a trace";
  DYNET_CHECK(trace_->num_nodes >= 2)
      << "trace " << trace_->source << ": replay needs >= 2 nodes, got "
      << trace_->num_nodes;
  const sim::NodeId n = trace_->num_nodes;

  if (options_.spine) {
    // Spine first — (0,1), (1,2), ... — then the trace's non-spine edges.
    // The stable prefix keeps positional patches off the spine slots.
    for (sim::NodeId v = 0; v + 1 < n; ++v) {
      initial_.push_back({v, static_cast<sim::NodeId>(v + 1)});
    }
    for (const net::Edge& e : filterSpine(trace_->initial)) {
      initial_.push_back(e);
    }
    deltas_.reserve(trace_->deltas.size());
    for (const dataset::RoundDelta& d : trace_->deltas) {
      deltas_.push_back({filterSpine(d.removed), filterSpine(d.added)});
    }
  } else {
    initial_ = trace_->initial;
    deltas_ = trace_->deltas;
  }

  if (options_.seeded_offset) {
    offset_ = static_cast<sim::Round>(
        util::hashCombine(options_.seed, 0x74726f6666736574ULL) %
        static_cast<std::uint64_t>(trace_->rounds));
  }
}

sim::Round TraceAdversary::tracePosition(sim::Round round) const {
  const auto T = static_cast<std::int64_t>(trace_->rounds);
  const std::int64_t raw =
      static_cast<std::int64_t>(offset_) + (round - 1);
  switch (options_.policy) {
    case TraceReplayOptions::EndPolicy::kWrap:
      return static_cast<sim::Round>(raw % T + 1);
    case TraceReplayOptions::EndPolicy::kClamp:
      return static_cast<sim::Round>(std::min(raw, T - 1) + 1);
    case TraceReplayOptions::EndPolicy::kMirror: {
      if (T == 1) {
        return 1;
      }
      const std::int64_t period = 2 * T - 2;
      const std::int64_t m = raw % period;
      return static_cast<sim::Round>(m < T ? m + 1 : 2 * T - 1 - m);
    }
  }
  return 1;
}

const dataset::RoundDelta& TraceAdversary::deltaInto(sim::Round pos) const {
  // deltas_[i] transitions position i+1 -> i+2.
  return deltas_[static_cast<std::size_t>(pos) - 2];
}

TraceAdversary::Step TraceAdversary::stepTo(sim::Round round) {
  DYNET_CHECK(round == last_round_ + 1)
      << "TraceAdversary must be stepped one round at a time (got round "
      << round << " after " << last_round_ << ")";
  last_round_ = round;
  const sim::Round target = tracePosition(round);
  Step step;
  if (pos_ == target) {
    return step;  // clamp (or T == 1): same topology again
  }
  step.moved = true;
  if (pos_ != 0 && target == pos_ + 1) {
    const dataset::RoundDelta& d = deltaInto(target);
    step.removed = d.removed;
    step.added = d.added;
    step.patched = true;
  } else if (pos_ != 0 && target == pos_ - 1) {
    // Mirror descending: the inverse delta, applied positionally, walks
    // the timeline backwards.
    const dataset::RoundDelta& d = deltaInto(pos_);
    step.removed = d.added;
    step.added = d.removed;
    step.patched = true;
  }
  pos_ = target;
  return step;
}

std::vector<net::Edge> TraceAdversary::edgesAfter(const Step& step) const {
  if (step.patched) {
    std::vector<net::Edge> edges(current_->edges().begin(),
                                 current_->edges().end());
    dataset::applyPositionalPatch(edges, step.removed, step.added,
                                  trace_->source, pos_);
    return edges;
  }
  // First round, or a jump (wrap-around, seeded offset): replay from the
  // start of the timeline.
  std::vector<net::Edge> edges = initial_;
  for (sim::Round p = 2; p <= pos_; ++p) {
    const dataset::RoundDelta& d = deltaInto(p);
    dataset::applyPositionalPatch(edges, d.removed, d.added, trace_->source,
                                  p);
  }
  return edges;
}

net::GraphPtr TraceAdversary::topology(sim::Round round,
                                       const sim::RoundObservation& obs) {
  (void)obs;
  const Step step = stepTo(round);
  if (!step.moved && current_ != nullptr) {
    return current_;
  }
  current_ = std::make_shared<net::Graph>(trace_->num_nodes, edgesAfter(step));
  return current_;
}

bool TraceAdversary::topologyUpdate(sim::Round round,
                                    const sim::RoundObservation& obs,
                                    const net::GraphPtr& prev,
                                    sim::TopologyUpdate& out) {
  (void)obs;
  const Step step = stepTo(round);
  if (!step.moved && current_ != nullptr) {
    out.graph = current_;
    out.is_delta = true;
    return true;
  }
  if (step.patched) {
    // The round's one positional patch, on current_, the graph this
    // adversary returned last round.  When the caller lent that graph as
    // `prev`, the adversary lets go of its own reference first, so a
    // caller holding the only other one gets it patched in place.
    if (prev == current_) {
      current_.reset();
    }
    try {
      current_ = net::applyDelta(current_ != nullptr ? current_ : prev,
                                 step.removed, step.added,
                                 /*same_components=*/options_.spine);
    } catch (const util::CheckError&) {
      // A failed patch leaves the graph as it was.  A removed edge missing
      // from the trace fails as on the edge-list path, naming the trace
      // and round; any other error passes through.
      if (current_ == nullptr) {
        current_ = prev;
      }
      edgesAfter(step);
      throw;
    }
    out.graph = current_;
    out.is_delta = true;
    out.edges_added = step.added.size();
    out.edges_removed = step.removed.size();
    return true;
  }
  current_ = std::make_shared<net::Graph>(trace_->num_nodes, edgesAfter(step));
  out.graph = current_;
  out.is_delta = false;
  return true;
}

}  // namespace dynet::adv
