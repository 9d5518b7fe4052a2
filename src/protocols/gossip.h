// k-token gossip (all-to-all token dissemination).
//
// The paper's introduction motivates its question with exactly this family
// (Kuhn-Lynch-Oshman [14], Dutta et al. [7], Haeupler et al. [11, 12]):
// dissemination protocols "need the diameter D to be specified as an input
// parameter.  When D is not known beforehand, one is forced to
// pessimistically set D = N to ensure correctness."
//
// Tokens 0..k-1 start at nodes 0..k-1 (token i at node i mod N).  Each
// round a node holding tokens sends a uniformly random held token with
// probability 1/2, else receives; one token fits one O(log N)-bit message
// (CONGEST).  A known-D run terminates at a budget Θ((k + D)·log N)·D-ish;
// the pessimistic run substitutes N for D.  bench_gossip measures actual
// completion and the waste factor of the pessimistic budget.
#pragma once

#include <memory>
#include <vector>

#include "sim/process.h"

namespace dynet::proto {

class GossipProcess : public sim::Process {
 public:
  /// `initial` are the token ids this node starts with; `total_tokens` is
  /// k; the process halts (done) at `total_rounds`.
  GossipProcess(std::vector<int> initial, int total_tokens,
                sim::Round total_rounds);

  sim::Action onRound(sim::Round round, util::CoinStream& coins) override;
  void onDeliver(sim::Round round, bool sent,
                 std::span<const sim::Message> received) override;
  bool done() const override { return done_; }
  /// Number of distinct tokens held.
  std::uint64_t output() const override {
    return static_cast<std::uint64_t>(held_count_);
  }

  bool hasAll() const { return held_count_ == total_tokens_; }
  int heldCount() const { return held_count_; }
  /// Round at whose end the node first held all tokens (-1 if never).
  sim::Round completeRound() const { return complete_round_; }

 private:
  int total_tokens_;
  sim::Round total_rounds_;
  std::vector<bool> held_;
  std::vector<int> held_list_;
  int held_count_ = 0;
  sim::Round complete_round_ = -1;
  bool done_ = false;
};

class GossipFactory : public sim::ProcessFactory {
 public:
  GossipFactory(int total_tokens, sim::Round total_rounds)
      : total_tokens_(total_tokens), total_rounds_(total_rounds) {}

  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;

 private:
  int total_tokens_;
  sim::Round total_rounds_;
};

/// Gossip round budget for a diameter bound: gamma * (k + D * log2 N) *
/// log2 N — enough for random-token forwarding to complete whp on the
/// tested adversaries (no network coding).
sim::Round gossipRounds(int k, sim::Round diameter, sim::NodeId num_nodes,
                        int gamma = 6);

}  // namespace dynet::proto
