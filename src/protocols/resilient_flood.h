// Loss-tolerant token flooding: solicit/re-send with capped backoff.
//
// The deterministic FloodProcess is optimal in the clean model but brittle
// under faults: each (holder -> neighbor) delivery happens once per round
// and a dropped delivery is simply lost; a holder also never re-learns that
// a neighbor still lacks the token.  ResilientFlood hardens it:
//
//   * non-holders actively SOLICIT: each round, with probability 1/2, they
//     broadcast a tiny request beacon (otherwise they listen),
//   * holders RE-SEND the token with capped exponential backoff: after each
//     transmission the gap to the next doubles (1, 2, 4, ... cap); hearing
//     a request resets the gap to 1 — dead neighbors cost little, needy
//     neighbors get served fast,
//   * every frame carries an 8-bit checksum (framing.h): corrupted
//     deliveries are discarded instead of mis-parsed,
//   * a holder declares itself LOCALLY QUIESCENT — done() — once its
//     backoff sits at the cap and it has heard no request for
//     quiet_threshold consecutive listen rounds.  A later request (say,
//     from a restarted neighbor with reset state) wakes it again.
//
// Under an all-zero FaultPlan this completes like a randomized flood plus a
// O(cap + quiet_threshold) quiescence tail; under drops/corruption it keeps
// re-offering until every live node holds the token, trading bit overhead
// for delivery probability (bench_faults quantifies the trade).
#pragma once

#include <memory>

#include "sim/process.h"

namespace dynet::proto {

struct ResilientFloodConfig {
  sim::NodeId source = 0;
  std::uint64_t token = 0x5a;
  int token_bits = 8;
  /// Maximum rounds between a holder's re-send attempts.
  int backoff_cap = 8;
  /// Request-free listen rounds (at the cap) before a holder goes
  /// quiescent.
  int quiet_threshold = 6;
};

class ResilientFloodProcess : public sim::Process {
 public:
  ResilientFloodProcess(sim::NodeId node, const ResilientFloodConfig& config);

  sim::Action onRound(sim::Round round, util::CoinStream& coins) override;
  void onDeliver(sim::Round round, bool sent,
                 std::span<const sim::Message> received) override;
  /// Done = holds the token and is locally quiescent.
  bool done() const override { return has_token_ && quiescent_; }
  std::uint64_t output() const override { return has_token_ ? config_.token : 0; }
  std::uint64_t stateDigest() const override;
  /// Exports resilient_flood/retransmissions,
  /// resilient_flood/corrupt_rejected, resilient_flood/token_round.
  void exportMetrics(
      std::vector<std::pair<std::string, double>>& out) const override;

  bool hasToken() const { return has_token_; }
  /// Round at whose end the token arrived (0 for the source; -1 if absent).
  sim::Round tokenRound() const { return token_round_; }

 private:
  sim::NodeId node_;
  ResilientFloodConfig config_;
  bool has_token_;
  sim::Round token_round_;
  int gap_ = 1;           // current backoff gap
  int cooldown_ = 0;      // rounds until the next send attempt
  int quiet_listens_ = 0; // consecutive request-free listen rounds
  bool quiescent_ = false;
  int corrupt_rejected_ = 0;     // deliveries failing checksum verification
  int token_transmissions_ = 0;  // all past the first are retransmissions
};

class ResilientFloodFactory : public sim::ProcessFactory {
 public:
  explicit ResilientFloodFactory(const ResilientFloodConfig& config)
      : config_(config) {}

  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;

 private:
  ResilientFloodConfig config_;
};

}  // namespace dynet::proto
