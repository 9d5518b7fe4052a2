// Leader election with UNKNOWN diameter (the paper's §7 protocol).
//
//   $ ./leader_election_demo [--nodes 64] [--adversary random_tree]
//                            [--estimate-skew 1.1] [--c 0.25] [--seed 3]
//
// The protocol never learns D; it only holds an estimate N' with
// |N'-N|/N <= 1/3 - c.  The demo prints the phase schedule as it runs and
// reports rounds, realized flooding rounds, and the elected leader.
#include <iostream>

#include "adversary/dynamic_adversaries.h"
#include "adversary/static_adversaries.h"
#include "net/diameter.h"
#include "protocols/leader_unknown_d.h"
#include "protocols/max_flood.h"
#include "sim/engine.h"
#include "util/cli.h"

namespace {

int run(int argc, char** argv) {
  using namespace dynet;
  util::Cli cli(argc, argv);
  // Every adversary of the demo takes n >= 2.
  const sim::NodeId n = cli.intFlag("nodes", 64, 2);
  const std::string adv_name = cli.str("adversary", "random_tree");
  const double skew = cli.real("estimate-skew", 1.1);
  const double c = cli.real("c", 0.25);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 3));
  cli.rejectUnknown();

  proto::LeaderConfig config;
  config.n_estimate = skew * n;
  config.c = c;
  config.k = 64;

  std::cout << "unknown-diameter leader election (paper §7 / Theorem 8)\n"
            << "N = " << n << ", N' = " << config.n_estimate << " (|N'-N|/N = "
            << std::abs(config.n_estimate - n) / n << ", promise allows "
            << (1.0 / 3.0 - c) << "), adversary = " << adv_name << "\n\n";

  proto::LeaderElectFactory factory(config, util::hashCombine(seed, 99));
  std::vector<std::unique_ptr<sim::Process>> processes;
  for (sim::NodeId v = 0; v < n; ++v) {
    processes.push_back(factory.create(v, n));
  }
  std::unique_ptr<sim::Adversary> adversary;
  if (adv_name == "random_tree") {
    adversary = std::make_unique<adv::RandomTreeAdversary>(n, seed);
  } else if (adv_name == "rotating_star") {
    adversary = std::make_unique<adv::RotatingStarAdversary>(n);
  } else if (adv_name == "static_path") {
    adversary = std::make_unique<adv::StaticAdversary>(net::makePath(n));
  } else if (adv_name == "shuffle_path") {
    adversary = std::make_unique<adv::ShufflePathAdversary>(n, seed);
  } else {
    std::cerr << "unknown adversary '" << adv_name << "'\n";
    return 2;
  }

  sim::EngineConfig engine_config;
  engine_config.max_rounds = 30'000'000;
  engine_config.record_topologies = true;
  sim::Engine engine(std::move(processes), std::move(adversary), engine_config,
                     seed);

  const proto::LeaderSchedule schedule(config);
  int last_phase = -1;
  while (!engine.allDone() && engine.step()) {
    const auto pos = schedule.locate(engine.currentRound());
    if (pos.phase != last_phase) {
      last_phase = pos.phase;
      std::cout << "phase " << pos.phase << " (diameter guess D' = "
                << (1 << pos.phase) << ") starts at round "
                << engine.currentRound() << "\n";
    }
  }
  const auto& result = engine.result();
  if (!result.all_done) {
    std::cout << "did not terminate within the round budget\n";
    return 1;
  }

  const std::uint64_t leader = engine.process(0).output();
  bool agreement = true;
  for (sim::NodeId v = 0; v < n; ++v) {
    agreement = agreement && engine.process(v).output() == leader;
  }
  const int diameter =
      net::dynamicDiameter(engine.topologies(),
                           std::min<int>(16, result.all_done_round - 1));
  std::cout << "\nelected leader: node " << (leader - 1) << " (key " << leader
            << ")\nagreement across all nodes: " << (agreement ? "yes" : "NO")
            << "\nterminated after " << result.all_done_round << " rounds";
  if (diameter > 0) {
    std::cout << " = " << result.all_done_round / static_cast<double>(diameter)
              << " flooding rounds at realized D = " << diameter;
  }
  std::cout << "\n(the pessimistic D := N approach would spend "
            << proto::knownDRounds(n, n) << " rounds regardless of D)\n";
  return agreement ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, run);
}
