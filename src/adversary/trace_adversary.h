// TraceAdversary: replays a compiled temporal-network trace
// (src/dataset/) as the per-round topology.
//
// The adversary is a small state machine over the trace's edge-delta
// timeline.  The delta-native topologyUpdate() applies each round's delta
// once, with net::applyDelta on the previous round's graph (in place when
// the engine's lent `prev` is its only other holder); topology()
// patches a copy of that graph's edge list with
// dataset::applyPositionalPatch and builds the graph from it.  A jump
// (first round, wrap, seeded offset) replays the timeline from round 1 the
// same way.  Both run the one positional-patch rule
// (net::patchEdges), so the two engine paths emit value-identical edges()
// sequences and runs stay byte-identical across the flag matrix (the same
// contract every synthetic adversary honors).
//
// Real traces are finite and usually disconnected in places, so two
// knobs adapt them to the model:
//
//   * End-of-trace policy: wrap (loop back to round 1), clamp (freeze on
//     the final topology), or mirror (ping-pong forward/backward).  A
//     seeded round offset optionally starts each seed at a different
//     trace window, so seed blocks explore the whole timeline.
//   * Spine: overlay the path 0-1-...-(n-1) permanently (trace deltas
//     touching spine pairs are dropped at construction).  Keeps every
//     round connected, which the model's connectivity check demands;
//     turn it off only with check_connectivity relaxed.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "dataset/trace.h"
#include "sim/adversary.h"

namespace dynet::adv {

struct TraceReplayOptions {
  enum class EndPolicy { kWrap, kClamp, kMirror };
  EndPolicy policy = EndPolicy::kWrap;
  /// Start the replay `hash(seed) % rounds` rounds into the trace.
  bool seeded_offset = false;
  std::uint64_t seed = 0;
  /// Overlay the connectivity spine (see file comment).
  bool spine = true;
};

/// Parses "wrap" / "clamp" / "mirror"; fails loudly otherwise.
TraceReplayOptions::EndPolicy parseEndPolicy(const std::string& name);
std::string endPolicyName(TraceReplayOptions::EndPolicy policy);

class TraceAdversary : public sim::Adversary {
 public:
  TraceAdversary(std::shared_ptr<const dataset::CompiledTrace> trace,
                 const TraceReplayOptions& options);

  net::GraphPtr topology(sim::Round round,
                         const sim::RoundObservation& obs) override;
  bool topologyUpdate(sim::Round round, const sim::RoundObservation& obs,
                      const net::GraphPtr& prev,
                      sim::TopologyUpdate& out) override;
  sim::NodeId numNodes() const override { return trace_->num_nodes; }

  /// Trace position (1-based) the replay maps engine round `round` to.
  sim::Round tracePosition(sim::Round round) const;

 private:
  struct Step {
    bool moved = false;    // position changed since the last engine round
    bool patched = false;  // moved by ±1: apply removed/added positionally
    std::span<const net::Edge> removed;
    std::span<const net::Edge> added;
  };

  /// Moves pos_ to the trace position of `round` and says how to get
  /// there; engine rounds must arrive sequentially from 1.
  Step stepTo(sim::Round round);
  /// The edge list at pos_ after `step`: current_'s edges patched
  /// positionally, or a seek from the start of the timeline.
  std::vector<net::Edge> edgesAfter(const Step& step) const;
  const dataset::RoundDelta& deltaInto(sim::Round pos) const;

  std::shared_ptr<const dataset::CompiledTrace> trace_;
  TraceReplayOptions options_;
  // Spine-filtered timeline: initial_ always starts with the spine edges.
  std::vector<net::Edge> initial_;
  std::vector<dataset::RoundDelta> deltas_;
  sim::Round offset_ = 0;

  sim::Round last_round_ = 0;  // last engine round served
  sim::Round pos_ = 0;         // current trace position (0 = not started)
  net::GraphPtr current_;      // topology at pos_, the base of the next patch
};

}  // namespace dynet::adv
