#include "lowerbound/reduction.h"

#include "lowerbound/party.h"
#include "obs/prof.h"
#include "protocols/flood.h"
#include "sim/engine.h"
#include "util/check.h"

namespace dynet::lb {

namespace {

/// Runs the lockstep Alice/Bob simulation against a recorded reference
/// execution; fills the shared parts of ReductionResult.
void runLockstep(NodeId num_nodes, Round horizon,
                 const sim::ProcessFactory& oracle, NodeId factory_n,
                 std::uint64_t public_seed, NodeId monitored,
                 const PartySim::EdgesFn& alice_edges,
                 const PartySim::EdgesFn& bob_edges,
                 std::vector<Round> alice_spoiled, std::vector<Round> bob_spoiled,
                 std::vector<NodeId> alice_specials,
                 std::vector<NodeId> bob_specials, sim::Engine& reference,
                 ReductionResult& result) {
  PartySim alice(num_nodes, std::move(alice_spoiled), alice_edges,
                 alice_specials, bob_specials, oracle, factory_n, public_seed);
  PartySim bob(num_nodes, std::move(bob_spoiled), bob_edges, bob_specials,
               alice_specials, oracle, factory_n, public_seed);

  cc::CountedChannel channel;
  bool consistent = true;
  std::uint64_t checked = 0;
  Round monitor_done = -1;
  for (Round r = 1; r <= horizon; ++r) {
    reference.step();
    const std::vector<Forward> from_alice = alice.computeActions(r);
    const std::vector<Forward> from_bob = bob.computeActions(r);
    for (const Forward& f : from_alice) {
      channel.transfer(cc::Direction::kAliceToBob, f.bits());
    }
    for (const Forward& f : from_bob) {
      channel.transfer(cc::Direction::kBobToAlice, f.bits());
    }
    alice.deliver(r, from_bob);
    bob.deliver(r, from_alice);
    // Cross-validate both parties' computed actions against ground truth.
    const auto& ref_actions =
        reference.actionTrace()[static_cast<std::size_t>(r - 1)];
    for (NodeId v = 0; v < num_nodes; ++v) {
      for (const PartySim* party : {&alice, &bob}) {
        if (party->hasAction(v, r)) {
          ++checked;
          if (!(party->actionOf(v) == ref_actions[static_cast<std::size_t>(v)])) {
            consistent = false;
          }
        }
      }
    }
    // Alice monitors the oracle's termination on her special node.
    if (monitor_done < 0 && alice.process(monitored).done()) {
      monitor_done = r;
    }
  }
  result.bits_alice_to_bob = channel.aliceToBobBits();
  result.bits_bob_to_alice = channel.bobToAliceBits();
  result.simulation_consistent = consistent;
  result.actions_checked = checked;
  result.claimed_disj = monitor_done >= 0 ? 1 : 0;
  result.monitor_done_round = monitor_done;
}

}  // namespace

ReductionResult runCFloodReduction(const cc::Instance& inst,
                                   const sim::ProcessFactory& oracle,
                                   std::uint64_t public_seed) {
  DYNET_PROF("lb/cflood_reduction");
  const CFloodNetwork network(inst);
  ReductionResult result;
  result.disj_truth = cc::evaluate(inst);
  result.horizon = network.horizon();
  result.num_nodes = network.numNodes();

  // Reference execution with its action trace, which runLockstep reads.
  sim::EngineConfig config;
  config.max_rounds = network.horizon();
  config.record_actions = true;
  config.stop_when_all_done = false;
  sim::Engine reference(sim::createProcesses(oracle, network.numNodes()),
                        network.referenceAdversary(), config, public_seed);

  runLockstep(
      network.numNodes(), network.horizon(), oracle, network.numNodes(),
      public_seed, network.source(),
      [&network](Round r) { return network.partyEdges(Party::kAlice, r); },
      [&network](Round r) { return network.partyEdges(Party::kBob, r); },
      network.spoiledFrom(Party::kAlice), network.spoiledFrom(Party::kBob),
      network.forwardedNodes(Party::kAlice),
      network.forwardedNodes(Party::kBob), reference, result);

  // Ground truth: was the oracle's output actually correct?  (CFLOOD output
  // is correct iff all nodes held the token when the source output.)
  const Round source_done =
      reference.result().done_round[static_cast<std::size_t>(network.source())];
  int holders = 0;
  bool all_held_at_output = source_done >= 0;
  bool is_flood_oracle = true;
  for (NodeId v = 0; v < network.numNodes(); ++v) {
    const auto* fp =
        dynamic_cast<const proto::FloodProcess*>(&reference.process(v));
    if (fp == nullptr) {
      // Non-CFLOOD oracle (e.g. a babbler used to stress the simulation
      // machinery): correctness fields stay at their defaults.
      is_flood_oracle = false;
      break;
    }
    if (fp->hasToken()) {
      ++holders;
    }
    if (source_done >= 0 &&
        (fp->tokenRound() < 0 || fp->tokenRound() > source_done)) {
      all_held_at_output = false;
    }
  }
  if (is_flood_oracle) {
    result.token_holders_at_horizon = holders;
    result.oracle_output_correct = all_held_at_output;
  }
  return result;
}

ReductionResult runConsensusReduction(const cc::Instance& inst,
                                      const sim::ProcessFactory& oracle,
                                      std::uint64_t public_seed) {
  const ConsensusNetwork network(inst);
  ReductionResult result;
  result.disj_truth = cc::evaluate(inst);
  result.horizon = network.horizon();
  result.num_nodes = network.numNodes();

  sim::EngineConfig config;
  config.max_rounds = network.horizon();
  config.record_actions = true;
  config.stop_when_all_done = false;
  sim::Engine reference(sim::createProcesses(oracle, network.numNodes()),
                        network.referenceAdversary(), config, public_seed);

  // The parties pass the Λ-only node count to the factory: they cannot know
  // the true N.  The factory must therefore be num_nodes-independent; the
  // cross-validation below fails loudly if it is not.
  runLockstep(
      network.numNodes(), network.horizon(), oracle,
      network.lambda().numNodes(), public_seed, network.monitor(),
      [&network](Round r) { return network.partyEdges(Party::kAlice, r); },
      [&network](Round r) { return network.partyEdges(Party::kBob, r); },
      network.spoiledFrom(Party::kAlice), network.spoiledFrom(Party::kBob),
      network.forwardedNodes(Party::kAlice),
      network.forwardedNodes(Party::kBob), reference, result);

  // Ground truth: did the monitored node's decision agree with everyone who
  // decided, and is agreement across Λ and Υ even possible this early?
  const Round monitor_done =
      reference.result().done_round[static_cast<std::size_t>(network.monitor())];
  bool correct = monitor_done >= 0;
  if (monitor_done >= 0) {
    const std::uint64_t decided = reference.process(network.monitor()).output();
    for (NodeId v = 0; v < network.numNodes(); ++v) {
      const sim::Process& p = reference.process(v);
      if (p.done() && p.output() != decided) {
        correct = false;  // agreement violated
      }
    }
  }
  result.oracle_output_correct = correct;
  return result;
}

}  // namespace dynet::lb
