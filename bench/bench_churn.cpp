// Churn sweep — protocol cost vs how fast the topology changes.
//
// The paper's model lets the adversary change everything every round; real
// dynamic networks sit on a spectrum.  This bench sweeps (a) the T-interval
// adversary (fresh random tree every T rounds) and (b) the edge-churn
// adversary (relocate m tree edges per round), measuring topology churn
// (mean consecutive-round edge Jaccard), realized diameter, and known-D
// leader-election cost.  Flooding rounds stay Θ(log N) across the whole
// spectrum — the paper's complexities are about *knowledge of D*, not
// about churn itself.
#include <iostream>

#include "adversary/churn_adversaries.h"
#include "adversary/dynamic_adversaries.h"
#include "bench_common.h"
#include "net/churn.h"
#include "protocols/consensus_known_d.h"
#include "protocols/max_flood.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using sim::NodeId;
using sim::Round;

struct ChurnPoint {
  double jaccard = 0;
  int diameter = 0;
  double rounds = 0;
  double flooding_rounds = 0;
  double success = 0;
};

template <typename MakeAdv>
ChurnPoint measure(NodeId n, const MakeAdv& make, std::uint64_t seed) {
  // Churn + diameter from a quiet recording.
  ChurnPoint point;
  {
    auto adversary = make(seed);
    net::TopologySeq topologies;
    std::vector<sim::Action> receiving(static_cast<std::size_t>(n));
    for (Round r = 1; r <= 3 * n; ++r) {
      topologies.push_back(adversary->topology(r, {receiving}));
    }
    point.jaccard = net::meanConsecutiveJaccard(topologies);
    point.diameter = net::dynamicDiameter(topologies, 8);
  }
  if (point.diameter <= 0) {
    return point;
  }
  // Known-D leader election on the same adversary family.
  proto::LeaderKnownDFactory factory(point.diameter);
  const Round budget = proto::knownDRounds(point.diameter, n) + 1;
  sim::EngineConfig config;
  config.max_rounds = budget;
  sim::Engine engine(sim::createProcesses(factory, n), make(seed + 1), config,
                     seed + 1);
  const auto result = engine.run();
  point.rounds = result.all_done_round;
  point.flooding_rounds = point.rounds / point.diameter;
  bool ok = result.all_done;
  for (NodeId v = 0; v < n && ok; ++v) {
    ok = engine.process(v).output() == static_cast<std::uint64_t>(n);
  }
  point.success = ok ? 1 : 0;
  return point;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = bench::quickMode(cli);
  const NodeId n = cli.intFlag("nodes", quick ? 64 : 128, 2);
  cli.rejectUnknown();
  std::cout << "Churn sweep — known-D LEADERELECT across the churn spectrum "
               "(N = " << n << ")\n\n";

  util::Table table({"adversary", "parameter", "edge Jaccard", "D", "rounds",
                     "flooding rounds", "success"});
  for (const Round interval : {1, 4, 16, 64}) {
    const ChurnPoint point = measure(
        n,
        [&](std::uint64_t seed) {
          return std::make_unique<adv::IntervalAdversary>(n, interval, seed);
        },
        500 + interval);
    table.row()
        .cell("interval")
        .cell("T=" + std::to_string(interval))
        .cell(point.jaccard, 3)
        .cell(point.diameter)
        .cell(point.rounds, 0)
        .cell(point.flooding_rounds, 1)
        .cell(point.success, 2);
  }
  for (const int churn : {0, 1, 4, 16}) {
    const ChurnPoint point = measure(
        n,
        [&](std::uint64_t seed) {
          return std::make_unique<adv::EdgeChurnAdversary>(n, churn, seed);
        },
        700 + churn);
    table.row()
        .cell("edge_churn")
        .cell("m=" + std::to_string(churn))
        .cell(point.jaccard, 3)
        .cell(point.diameter)
        .cell(point.rounds, 0)
        .cell(point.flooding_rounds, 1)
        .cell(point.success, 2);
  }
  for (const double p : {0.0, 0.01, 0.05}) {
    const ChurnPoint point = measure(
        n,
        [&](std::uint64_t seed) {
          return std::make_unique<adv::RandomGraphAdversary>(n, p, seed);
        },
        900 + static_cast<int>(p * 100));
    table.row()
        .cell("gnp_tree")
        .cell("p=" + std::to_string(p).substr(0, 4))
        .cell(point.jaccard, 3)
        .cell(point.diameter)
        .cell(point.rounds, 0)
        .cell(point.flooding_rounds, 1)
        .cell(point.success, 2);
  }
  std::cout << table.toString();
  std::cout
      << "\nReading: churn (1 - Jaccard) spans static to full reshuffle, yet\n"
         "flooding rounds hold at a small multiple of log2 N = "
      << util::bitWidthFor(static_cast<std::uint64_t>(n))
      << " throughout:\nwith D known, the paper's problems are insensitive "
         "to churn itself.\n";
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
