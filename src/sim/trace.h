// Execution-trace serialization.
//
// Writes a recorded execution (per-round topologies and actions) to a
// line-oriented text format and reads it back — so experiments can be
// archived, diffed, re-analyzed (diameter, churn) or replayed without
// re-running the protocol.  Format (one record per line):
//
//   dynet-trace v1
//   n <num_nodes>
//   r <round>              -- starts a round block
//   e <a> <b>              -- edge of the current round
//   s <node> <bits> <hex>  -- node sent a message (payload hex, LSB-first words)
//   q <node>               -- node chose to receive
//
// Rounds must be contiguous from 1.  The reader validates structure and
// bit-widths.
#pragma once

#include <iosfwd>
#include <vector>

#include "net/diameter.h"
#include "sim/process.h"

namespace dynet::sim {

struct Trace {
  NodeId num_nodes = 0;
  net::TopologySeq topologies;
  std::vector<std::vector<Action>> actions;  // [round-1][node]

  Round rounds() const { return static_cast<Round>(topologies.size()); }
};

/// Serializes a trace of at least one round (an engine's, Engine::trace(),
/// needs record_topologies).  `actions` may be empty (topology-only
/// traces).
void writeTrace(std::ostream& out, const Trace& trace);

/// Parses a trace; throws util::CheckError on malformed input.
Trace readTrace(std::istream& in);

}  // namespace dynet::sim
