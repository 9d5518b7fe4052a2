// E-INTRO — the paper's opening framing, executed.
//
// Static half: "in typical static networks, D can still be efficiently
// estimated ... in just O(D) rounds", so static networks are NOT sensitive
// to unknown diameter.  We run the doubling flood+count estimator on
// static topologies with wildly different diameters and report D̂/D.
//
// Dynamic half: "A dynamic network's diameter depends on the FUTURE
// behavior of the network."  A bait-and-switch adversary presents a clique
// until the estimator commits, then a fixed path forever.  The estimate
// (a few rounds) is truthful about the past and useless about the future:
// a CFLOOD that trusts it confirms a flood that never reached the path's
// far end.
#include <iostream>

#include "adversary/static_adversaries.h"
#include "bench_common.h"
#include "protocols/cflood.h"
#include "protocols/diameter_estimate.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using sim::NodeId;
using sim::Round;

/// Clique until switch_round, a fixed path afterwards.
class BaitAndSwitchAdversary : public sim::Adversary {
 public:
  BaitAndSwitchAdversary(NodeId n, Round switch_round)
      : n_(n),
        switch_round_(switch_round),
        clique_(net::makeClique(n)),
        path_(net::makePath(n)) {}

  net::GraphPtr topology(Round round, const sim::RoundObservation&) override {
    return round < switch_round_ ? clique_ : path_;
  }
  NodeId numNodes() const override { return n_; }

 private:
  NodeId n_;
  Round switch_round_;
  net::GraphPtr clique_;
  net::GraphPtr path_;
};

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = bench::quickMode(cli);
  cli.rejectUnknown();

  std::cout << "E-INTRO — static vs dynamic sensitivity (paper §1 framing)\n\n"
            << "Static networks: doubling flood+count estimator (N known)\n\n";
  {
    util::Table table({"topology", "N", "true ecc(root)", "D-hat", "ratio",
                       "rounds used"});
    struct Case {
      const char* name;
      net::GraphPtr graph;
    };
    for (const Case& c :
         {Case{"path", net::makePath(128)}, Case{"ring", net::makeRing(128)},
          Case{"star", net::makeStar(128)}, Case{"torus", net::makeTorus(8, 16)},
          Case{"clique", net::makeClique(96)}}) {
      const NodeId n = c.graph->numNodes();
      // Ground truth: root's eccentricity in the static graph.
      net::TopologySeq repeat(static_cast<std::size_t>(3 * n), c.graph);
      const int ecc = net::causalEccentricity(repeat, 0, 0);
      proto::DiameterEstimateConfig config;
      config.n = n;
      proto::DiameterEstimateFactory factory(config, 5);
      sim::EngineConfig engine_config;
      engine_config.max_rounds = 10'000'000;
      sim::Engine engine(sim::createProcesses(factory, n),
                         std::make_unique<adv::StaticAdversary>(c.graph),
                         engine_config, 5);
      const auto result = engine.run();
      const auto dhat = engine.process(0).output();
      table.row()
          .cell(c.name)
          .cell(static_cast<std::int64_t>(n))
          .cell(ecc)
          .cell(dhat)
          .cell(static_cast<double>(dhat) / ecc, 2)
          .cell(static_cast<std::int64_t>(result.all_done_round));
    }
    std::cout << table.toString();
    std::cout << "\nD-hat tracks the true eccentricity within the doubling\n"
                 "factor and the (1-eps) count threshold (ratio in ~[0.9, 4))\n"
                 "on every static topology: static networks are not sensitive\n"
                 "to unknown diameter.\n\n";
  }

  std::cout << "Dynamic network: bait-and-switch (clique, then path)\n\n";
  {
    util::Table table({"N", "D-hat (declared)", "declared at round",
                       "future diameter", "CFLOOD trusting D-hat: holders",
                       "output correct"});
    const std::vector<NodeId> sizes =
        quick ? std::vector<NodeId>{64} : std::vector<NodeId>{64, 128};
    for (const NodeId n : sizes) {
      // 1. Run the estimator against the bait-and-switch; the adversary
      //    switches right after the declaration (worst case: we first find
      //    the declaration round against a pure clique).
      proto::DiameterEstimateConfig config;
      config.n = n;
      proto::DiameterEstimateFactory factory(config, 7);
      sim::EngineConfig engine_config;
      engine_config.max_rounds = 1'000'000;
      sim::Engine probe(sim::createProcesses(factory, n),
                        std::make_unique<adv::StaticAdversary>(net::makeClique(n)),
                        engine_config, 7);
      probe.run();
      const Round declared_round = probe.result().done_round[0];
      const auto dhat = probe.process(0).output();

      // 2. The adversary switches to a path right after; the dynamic
      //    diameter of the full execution is now path-like for any start
      //    round past the switch.
      const int future_d = n - 1;

      // 3. A CFLOOD started after the switch that trusts D-hat confirms
      //    wrongly.
      proto::CFloodFactory cflood(0, 0x2a, 8, proto::FloodMode::kDeterministic,
                                  static_cast<Round>(dhat));
      sim::EngineConfig cconfig;
      cconfig.max_rounds = static_cast<Round>(dhat) + 1;
      sim::Engine confirm(sim::createProcesses(cflood, n),
                          std::make_unique<BaitAndSwitchAdversary>(n, 1),
                          cconfig, 9);
      confirm.run();
      table.row()
          .cell(static_cast<std::int64_t>(n))
          .cell(dhat)
          .cell(static_cast<std::int64_t>(declared_round))
          .cell(future_d)
          .cell(proto::tokenHolderCount(confirm))
          .cell(proto::allHoldToken(confirm) ? "yes" : "NO");
    }
    std::cout << table.toString();
    std::cout
        << "\nReading: the estimator truthfully reports the PAST diameter\n"
           "(a few rounds, clique), but the adversary owns the future: the\n"
           "same estimate fed into CFLOOD after the switch confirms while\n"
           "most of the path never saw the token.  In dynamic networks no\n"
           "prefix of the execution certifies D — that is why the paper's\n"
           "lower bounds are about knowledge, not measurement.\n";
  }
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::bench::guardedMain(argc, argv, dynet::run);
}
