// Oracle protocols for the two-party reduction and stress tests.
//
// The reduction (Theorems 6/7) treats the protocol as a black box.  These
// oracles instantiate the box:
//   * CFloodFactory with a small wait (an "optimistic" CFLOOD) realizes the
//     premise "terminates within s flooding rounds" — it is a correct
//     1/6-error CFLOOD on every network whose realized diameter is within
//     its assumption (all DISJ=1 networks of the family), and the benches
//     show its output is provably wrong on DISJ=0 networks, which is
//     exactly the dichotomy the lower bound rests on.
//   * RandomBabbler sends uniformly random O(log N)-bit payloads with
//     probability 1/2 — a protocol with maximal behavioural entropy, used
//     by the Lemma 3/4/5 property tests to stress the simulation machinery
//     (both branches of the receive-dependent adversary rules fire).
#pragma once

#include <memory>

#include "protocols/max_flood.h"
#include "sim/process.h"

namespace dynet::proto {

class RandomBabblerProcess : public sim::Process {
 public:
  RandomBabblerProcess(sim::NodeId node, int payload_bits);

  sim::Action onRound(sim::Round round, util::CoinStream& coins) override;
  void onDeliver(sim::Round round, bool sent,
                 std::span<const sim::Message> received) override;
  bool done() const override { return false; }
  std::uint64_t stateDigest() const override { return digest_; }

 private:
  sim::NodeId node_;
  int payload_bits_;
  std::uint64_t digest_;
};

class RandomBabblerFactory : public sim::ProcessFactory {
 public:
  explicit RandomBabblerFactory(int payload_bits) : payload_bits_(payload_bits) {}

  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;

 private:
  int payload_bits_;
};

/// CONSENSUS oracle for the Theorem 7 reduction: max-flood (id, input) for
/// `total_rounds` rounds, then decide the max id's input.
///
/// Deliberately num_nodes-independent: in the Theorem 7 setting the parties
/// do not know N (the type-Υ subnetwork's existence depends on both
/// inputs), so all message widths derive from an N-independent `key_bits`
/// and per-node inputs are indexed positionally.
class ConsensusOracleFactory : public sim::ProcessFactory {
 public:
  ConsensusOracleFactory(std::vector<std::uint64_t> inputs, int key_bits,
                         sim::Round total_rounds);

  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;

 private:
  std::vector<std::uint64_t> inputs_;
  int key_bits_;
  sim::Round total_rounds_;
};

}  // namespace dynet::proto
