// Confirmed flooding (CFLOOD).
//
// The source V floods an O(log N)-bit token and must *confirm*: the protocol
// terminates when V outputs, and the output is correct iff every node holds
// the token at that moment (paper §1).  With known diameter the trivial
// solution is deterministic flooding plus counting D rounds (one flooding
// round).  With unknown diameter the only always-correct termination rule
// in this family is the pessimistic wait of N-1 rounds — the very cost the
// paper proves unavoidable (Theorem 6).
#pragma once

#include <memory>

#include "protocols/flood.h"
#include "sim/process.h"

namespace dynet::sim {
class Engine;
}

namespace dynet::proto {

/// CFLOOD where the source outputs after `wait_rounds` rounds.
///   * known D:      wait_rounds = D        (correct; 1 flooding round)
///   * unknown D:    wait_rounds = N - 1    (correct; pessimistic)
///   * optimistic:   wait_rounds = assumed cap (correct only when the
///                   realized diameter is at most the assumption; used as
///                   the reduction's fast oracle)
class CFloodFactory : public sim::ProcessFactory {
 public:
  CFloodFactory(sim::NodeId source, std::uint64_t token, int token_bits,
                FloodMode mode, sim::Round wait_rounds)
      : source_(source),
        token_(token),
        token_bits_(token_bits),
        mode_(mode),
        wait_rounds_(wait_rounds) {}

  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;

  sim::NodeId source() const { return source_; }

 private:
  sim::NodeId source_;
  std::uint64_t token_;
  int token_bits_;
  FloodMode mode_;
  sim::Round wait_rounds_;
};

/// True iff every process (a FloodProcess) holds the token.
bool allHoldToken(const sim::Engine& engine);

/// Number of processes holding the token.
int tokenHolderCount(const sim::Engine& engine);

}  // namespace dynet::proto
