// Quickstart: build a dynamic network, run a protocol, inspect the run.
//
//   $ ./quickstart [--nodes 32] [--seed 7]
//
// Walks the library's core loop end to end:
//   1. pick an adversary (here: a fresh random spanning tree every round),
//   2. instantiate a protocol per node via a ProcessFactory (deterministic
//      token flooding from node 0),
//   3. run the CONGEST round engine,
//   4. compute the realized dynamic diameter from the recorded topologies
//      and check the flooding-completes-within-D guarantee.
#include <iostream>
#include <limits>

#include "adversary/dynamic_adversaries.h"
#include "net/diameter.h"
#include "protocols/cflood.h"
#include "protocols/flood.h"
#include "sim/engine.h"
#include "util/cli.h"

namespace {

int run(int argc, char** argv) {
  using namespace dynet;
  util::Cli cli(argc, argv);
  // RandomTreeAdversary takes n >= 2, and the round budget 4n must fit.
  const sim::NodeId n =
      cli.intFlag("nodes", 32, 2, std::numeric_limits<sim::Round>::max() / 4);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 7));
  cli.rejectUnknown();

  std::cout << "dynet quickstart: flooding a token over a dynamic network of "
            << n << " nodes\n"
            << "(topology: a fresh random spanning tree every round)\n\n";

  // 1. Protocols: node 0 floods an 8-bit token; holders always send.
  proto::FloodFactory factory(/*source=*/0, /*token=*/0x5a, /*token_bits=*/8,
                              proto::FloodMode::kDeterministic,
                              /*halt_round=*/0);
  std::vector<std::unique_ptr<sim::Process>> processes;
  for (sim::NodeId v = 0; v < n; ++v) {
    processes.push_back(factory.create(v, n));
  }

  // 2. Adversary + engine, with topology recording switched on.
  sim::EngineConfig config;
  config.max_rounds = 4 * n;
  config.record_topologies = true;
  sim::Engine engine(std::move(processes),
                     std::make_unique<adv::RandomTreeAdversary>(n, seed),
                     config, seed);

  // 3. Step rounds until everyone holds the token.
  sim::Round completed = -1;
  while (completed < 0 && engine.step()) {
    if (proto::tokenHolderCount(engine) == n) {
      completed = engine.currentRound();
    }
  }
  std::cout << "token reached all " << n << " nodes after " << completed
            << " rounds\n";
  std::cout << "messages sent: " << engine.result().messages_sent << " ("
            << engine.result().bits_sent << " bits, budget "
            << engine.budgetBits() << " bits/message)\n";

  // 4. The realized dynamic diameter bounds the completion round.
  const int diameter = net::causalEccentricity(engine.topologies(), 0, 0);
  std::cout << "realized causal eccentricity of the source: " << diameter
            << " rounds\n";
  std::cout << (completed > 0 && completed <= diameter
                    ? "flooding completed within the causal eccentricity, as "
                      "the model guarantees.\n"
                    : "unexpected: flooding exceeded the causal bound!\n");
  return completed > 0 && completed <= diameter ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, run);
}
