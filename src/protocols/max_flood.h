// Max-flood: epidemic dissemination of the largest (key, value) pair.
//
// Every node starts with a pair; each round it sends its current best pair
// with probability 1/2 (otherwise receives), keeping the lexicographically
// largest key seen.  After `total_rounds` rounds every node outputs the
// value attached to the best key — with high probability the global
// maximum once total_rounds = Θ(D log N).
//
// This single state machine realizes three of the paper's known-diameter
// upper bounds: LEADERELECT (value = key = id), CONSENSUS (key = id,
// value = input bit, decide the max id's input), and MAX (key = the value
// whose maximum is sought).
#pragma once

#include <memory>

#include "sim/process.h"

namespace dynet::proto {

class MaxFloodProcess : public sim::Process {
 public:
  MaxFloodProcess(std::uint64_t key, std::uint64_t value, int key_bits,
                  int value_bits, sim::Round total_rounds);

  sim::Action onRound(sim::Round round, util::CoinStream& coins) override;
  void onDeliver(sim::Round round, bool sent,
                 std::span<const sim::Message> received) override;
  bool done() const override { return done_; }
  /// Output = value of the best key seen.
  std::uint64_t output() const override { return best_value_; }
  std::uint64_t stateDigest() const override;

  std::uint64_t bestKey() const { return best_key_; }
  std::uint64_t bestValue() const { return best_value_; }

 private:
  std::uint64_t best_key_;
  std::uint64_t best_value_;
  int key_bits_;
  int value_bits_;
  sim::Round total_rounds_;
  bool done_ = false;
};

/// Assigns key = node id + 1 (ids are 0-based; keys stay nonzero) and a
/// caller-provided per-node value.
class MaxFloodFactory : public sim::ProcessFactory {
 public:
  MaxFloodFactory(std::vector<std::uint64_t> values, int value_bits,
                  sim::Round total_rounds);

  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;

 private:
  std::vector<std::uint64_t> values_;
  int value_bits_;
  sim::Round total_rounds_;
};

/// Round budget realizing the "O(log N) flooding rounds" trivial upper
/// bound: gamma * D * ceil(log2 N) + gamma.
sim::Round knownDRounds(sim::Round diameter, sim::NodeId num_nodes, int gamma = 6);

}  // namespace dynet::proto
