// Token flooding in the send-xor-receive model.
//
// Deterministic variant: token holders always send, non-holders always
// receive.  On any always-connected dynamic network this floods to all N
// nodes within min(D, N-1) rounds: every causal chain guaranteed by the
// diameter definition is realized because holders never miss a send and
// non-holders never miss a receive (proof mirrored in tests).
//
// Randomized variant: holders send with probability 1/2 (used to exercise
// the lower-bound machinery's receive-dependent adversary rules).
#pragma once

#include <memory>

#include "sim/process.h"

namespace dynet::proto {

enum class FloodMode {
  kDeterministic,  // holders always send
  kRandomized,     // holders send w.p. 1/2
};

class FloodProcess : public sim::Process {
 public:
  /// `token` must fit `token_bits` bits.  `halt_round` > 0 makes done()
  /// flip at the end of that round (the process keeps relaying after).
  FloodProcess(sim::NodeId node, sim::NodeId source, std::uint64_t token,
               int token_bits, FloodMode mode, sim::Round halt_round);

  sim::Action onRound(sim::Round round, util::CoinStream& coins) override;
  void onDeliver(sim::Round round, bool sent,
                 std::span<const sim::Message> received) override;
  bool done() const override { return done_; }
  std::uint64_t output() const override { return has_token_ ? token_ : 0; }
  std::uint64_t stateDigest() const override;
  /// Exports flood/has_token and flood/token_round (CFLOOD inherits).
  void exportMetrics(
      std::vector<std::pair<std::string, double>>& out) const override;

  bool hasToken() const { return has_token_; }
  /// Round at whose end the token arrived (0 for the source; -1 if absent).
  sim::Round tokenRound() const { return token_round_; }

 private:
  sim::NodeId node_;
  std::uint64_t token_;
  int token_bits_;
  FloodMode mode_;
  sim::Round halt_round_;
  bool has_token_;
  sim::Round token_round_;
  bool done_ = false;
};

class FloodFactory : public sim::ProcessFactory {
 public:
  FloodFactory(sim::NodeId source, std::uint64_t token, int token_bits,
               FloodMode mode, sim::Round halt_round)
      : source_(source),
        token_(token),
        token_bits_(token_bits),
        mode_(mode),
        halt_round_(halt_round) {}

  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;
  /// Structure-of-arrays execution (sim/soa.h): has_token / token_round /
  /// done become flat columns; byte-identical to the object path.
  std::unique_ptr<sim::SoAModel> createSoA(
      sim::NodeId num_nodes) const override;

 private:
  sim::NodeId source_;
  std::uint64_t token_;
  int token_bits_;
  FloodMode mode_;
  sim::Round halt_round_;
};

/// The flood state digest as a pure function of one node's state — the
/// single source of truth shared by FloodProcess::stateDigest and the SoA
/// model, so the cross-representation digest checks compare like with like.
std::uint64_t floodStateDigest(sim::NodeId node, bool has_token,
                               sim::Round token_round);

}  // namespace dynet::proto
