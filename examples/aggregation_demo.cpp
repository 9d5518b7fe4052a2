// Aggregation on a churning dynamic network: MAX and estimate-N
// (HEAR-FROM-N-NODES) with a known diameter bound.
//
//   $ ./aggregation_demo [--nodes 96] [--diameter 8] [--k 128] [--seed 9]
//
// Every node holds a private value; the network is a fresh random spanning
// tree each round.  The demo runs (a) max-flood to find the maximum and
// (b) exponential-minima counting to estimate N, and reports accuracy.
#include <iostream>

#include "adversary/dynamic_adversaries.h"
#include "protocols/counting.h"
#include "protocols/max_flood.h"
#include "sim/engine.h"
#include "util/cli.h"

namespace {

int run(int argc, char** argv) {
  using namespace dynet;
  util::Cli cli(argc, argv);
  // The ranges RandomTreeAdversary (n >= 2), the round schedules
  // (D >= 1) and CountingProcess (1 <= k < 2^10) check.
  const sim::NodeId n = cli.intFlag("nodes", 96, 2);
  const int diameter = cli.intFlag("diameter", 8, 1);
  const int k = cli.intFlag("k", 128, 1, 1023);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 9));
  cli.rejectUnknown();

  std::cout << "aggregation over a churning network (" << n
            << " nodes, random tree each round, D bound " << diameter << ")\n\n";

  // --- MAX via max-flood ---
  std::vector<std::uint64_t> values;
  std::uint64_t true_max = 0;
  util::Rng rng(seed);
  for (sim::NodeId v = 0; v < n; ++v) {
    values.push_back(rng.below(100000));
    true_max = std::max(true_max, values.back());
  }
  const sim::Round max_rounds = proto::knownDRounds(diameter, n);
  proto::MaxFloodFactory max_factory(values, /*value_bits=*/17, max_rounds);
  std::vector<std::unique_ptr<sim::Process>> processes;
  for (sim::NodeId v = 0; v < n; ++v) {
    processes.push_back(max_factory.create(v, n));
  }
  sim::EngineConfig config;
  config.max_rounds = max_rounds + 1;
  sim::Engine max_engine(std::move(processes),
                         std::make_unique<adv::RandomTreeAdversary>(n, seed),
                         config, seed);
  max_engine.run();
  int exact = 0;
  for (sim::NodeId v = 0; v < n; ++v) {
    const auto* p =
        dynamic_cast<const proto::MaxFloodProcess*>(&max_engine.process(v));
    exact += (p != nullptr && values[static_cast<std::size_t>(p->bestKey() - 1)] ==
                                  p->bestValue() &&
              p->bestKey() == static_cast<std::uint64_t>(n))
                 ? 1
                 : 0;
  }
  std::cout << "MAX: true max = " << true_max << "; " << exact << "/" << n
            << " nodes learned the global winner in " << max_rounds
            << " rounds (" << max_rounds / diameter << " flooding rounds)\n";

  // --- estimate N via exponential minima ---
  const sim::Round count_rounds = proto::countingRounds(k, diameter, n, 2);
  proto::CountingFactory count_factory(k, count_rounds, seed);
  processes.clear();
  for (sim::NodeId v = 0; v < n; ++v) {
    processes.push_back(count_factory.create(v, n));
  }
  config.max_rounds = count_rounds + 1;
  sim::Engine count_engine(std::move(processes),
                           std::make_unique<adv::RandomTreeAdversary>(n, seed + 1),
                           config, seed + 1);
  count_engine.run();
  double worst_rel_err = 0;
  for (sim::NodeId v = 0; v < n; ++v) {
    const auto* p =
        dynamic_cast<const proto::CountingProcess*>(&count_engine.process(v));
    if (p != nullptr) {
      worst_rel_err =
          std::max(worst_rel_err, std::abs(p->estimate() - n) / n);
    }
  }
  std::cout << "estimate-N: k = " << k << ", " << count_rounds
            << " rounds; worst node's relative error = " << worst_rel_err
            << "\n";
  std::cout << "\n(an estimate with error below 1/3 - c is exactly what the\n"
            << "§7 protocol needs to elect a leader without knowing D — see\n"
            << "leader_election_demo)\n";
  return worst_rel_err < 1.0 / 3.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, run);
}
