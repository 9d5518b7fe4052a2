// Ablation A1 — why the Λ removals must CASCADE (paper §5's "one may
// wonder why we cannot simply remove the edges on all these chains at the
// same time").
//
// The mounting point's own influence crawls along the middle line either
// way; what the cascade buys is SIMULATABILITY.  The spoiled-from rounds
// are defined by the chain labels ((2t,2t) ⇒ spoiled at t+1).  Under the
// cascading schedule every actual edge removal coincides with the label
// schedule, so Lemma 4 holds and Alice can re-derive every non-spoiled
// node.  Remove all chains at round 1 instead and middles that the label
// rules still call non-spoiled (until round t+1) sit next to edges that
// are already gone: their neighbourhoods diverge from Alice's simulated
// adversary in ways Lemma 4 forbids — and those de-facto-corrupted middles
// are one line-hop from the always-intact (q-1,q-1) chain, i.e. a few
// rounds from A_Λ.  The reduction collapses.
//
// This bench counts Lemma-4 violations and their earliest round under both
// schedules, plus the mounting point's insulation (unchanged — the line is
// the bottleneck either way, which is exactly why the paper can keep the
// diameter Ω(q) while still letting the parties simulate).
#include <iostream>

#include "bench_common.h"
#include "lowerbound/lambda.h"
#include "lowerbound/spoiled.h"
#include "protocols/oracles.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using lb::CascadeMode;
using lb::LambdaNet;
using sim::Round;

/// Adversary adapter for a standalone Λ subnetwork.
class LambdaOnlyAdversary : public sim::Adversary {
 public:
  explicit LambdaOnlyAdversary(const LambdaNet& net) : net_(net) {}

  net::GraphPtr topology(Round r, const sim::RoundObservation& obs) override {
    std::vector<net::Edge> edges;
    net_.appendReferenceEdges(r, obs.actions, edges);
    return std::make_shared<net::Graph>(net_.numNodes(), std::move(edges));
  }
  sim::NodeId numNodes() const override { return net_.numNodes(); }

 private:
  const LambdaNet& net_;
};

struct Probe {
  int insulation = -1;
  int lemma_violations = 0;
  Round earliest_violation = -1;
};

Probe probeLambda(const cc::Instance& inst, CascadeMode mode,
                  std::uint64_t seed) {
  LambdaNet net(inst, 0, mode);
  const Round horizon = (inst.q - 1) / 2;
  proto::RandomBabblerFactory factory(16);
  sim::EngineConfig config;
  config.max_rounds = 3 * inst.q;
  config.record_topologies = true;
  config.record_actions = true;
  config.stop_when_all_done = false;
  sim::Engine engine(sim::createProcesses(factory, net.numNodes()),
                     std::make_unique<LambdaOnlyAdversary>(net), config, seed);
  engine.run();

  Probe probe;
  if (!net.mountingPoints().empty()) {
    for (Round budget = 1; budget <= config.max_rounds; ++budget) {
      const auto reach = net::causalReach(engine.topologies(),
                                          net.mountingPoints().front(), 0,
                                          budget);
      if (net::bitmapTest(reach, net.a())) {
        probe.insulation = budget;
        break;
      }
    }
  }
  std::vector<Round> spoiled(static_cast<std::size_t>(net.numNodes()),
                             lb::kNever);
  net.fillSpoiledFrom(lb::Party::kAlice, spoiled);
  const auto violations = lb::checkNeighborhoodLemma(
      net.numNodes(), spoiled,
      [&net](Round r) {
        std::vector<net::Edge> edges;
        net.appendPartyEdges(lb::Party::kAlice, r, edges);
        return edges;
      },
      engine.topologies(), engine.actionTrace(), {net.b()}, horizon);
  probe.lemma_violations = static_cast<int>(violations.size());
  for (const auto& v : violations) {
    if (probe.earliest_violation < 0 || v.round < probe.earliest_violation) {
      probe.earliest_violation = v.round;
    }
  }
  return probe;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = bench::quickMode(cli);
  cli.rejectUnknown();
  std::cout
      << "Ablation A1 — cascading vs simultaneous edge removal in type-Λ\n"
      << "(x_i = y_i = 0 centipedes; horizon = (q-1)/2)\n\n";
  util::Table table({"q", "horizon", "mount insulation (cascade)",
                     "mount insulation (simult)", "Lemma-4 violations (cascade)",
                     "Lemma-4 violations (simult)", "earliest violation (simult)"});
  const std::vector<int> qs =
      quick ? std::vector<int>{7, 15} : std::vector<int>{7, 15, 31, 61};
  for (const int q : qs) {
    cc::Instance inst;
    inst.n = 1;
    inst.q = q;
    inst.x = {0};
    inst.y = {0};
    const Probe cascade = probeLambda(inst, CascadeMode::kCascading, 11);
    const Probe simultaneous = probeLambda(inst, CascadeMode::kSimultaneous, 11);
    table.row()
        .cell(q)
        .cell((q - 1) / 2)
        .cell(cascade.insulation)
        .cell(simultaneous.insulation)
        .cell(cascade.lemma_violations)
        .cell(simultaneous.lemma_violations)
        .cell(static_cast<std::int64_t>(simultaneous.earliest_violation));
  }
  std::cout << table.toString();
  std::cout
      << "\nReading: insulation exceeds the horizon under BOTH schedules (the\n"
         "middle line is the only escape route either way) — but only the\n"
         "cascade keeps the Lemma-4 count at zero.  Simultaneous removal\n"
         "makes nodes that the spoiled rules still trust observe edges that\n"
         "are already gone, from round 1 on: Alice's simulation would\n"
         "diverge, so the communication-complexity argument (Lemma 5 /\n"
         "Theorems 6-7) could not be run.  The cascade is load-bearing for\n"
         "the *proof*, not for the diameter.\n";
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::bench::guardedMain(argc, argv, dynet::run);
}
