// Extension — the dual graph model (paper: "all our results and proofs
// also extend to the dual graph model [9, 13] without any modification").
//
// Reliable ring + unreliable chord shortcuts, three adversary policies:
//   granted (p=1)  — chords always appear: small realized diameter,
//   random (p=.5)  — chords flicker,
//   flaky          — ADAPTIVE: a chord appears only when both endpoints
//                    receive, i.e. never when it could carry a message.
// The flaky policy is the interesting one: it keeps the *definitional*
// dynamic diameter small (the chords exist, so causal paths exist) while
// guaranteeing no chord ever carries a message (an edge appears only
// between two receivers).  A protocol whose round budget is keyed to the
// realized D then starves once the reliable ring outgrows the budget —
// precisely the constant-diameter dual-graph phenomenon of Ghaffari,
// Lynch & Newport [9] that the paper cites as "not due to the lack of
// knowledge of the diameter".
#include <iostream>

#include "adversary/dual_graph.h"
#include "bench_common.h"
#include "protocols/cflood.h"
#include "protocols/consensus_known_d.h"
#include "protocols/max_flood.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using adv::DualGraphPolicy;
using sim::NodeId;
using sim::Round;

int measuredDualDiameter(NodeId n, DualGraphPolicy policy, double p,
                         std::uint64_t seed) {
  auto adversary = adv::makeRingWithChords(n, policy, p, seed);
  net::TopologySeq topologies;
  std::vector<sim::Action> receiving(static_cast<std::size_t>(n));
  for (Round r = 1; r <= 3 * n; ++r) {
    topologies.push_back(adversary->topology(r, {receiving}));
  }
  return net::dynamicDiameter(topologies, 8);
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = bench::quickMode(cli);
  cli.rejectUnknown();
  std::cout << "Dual graph model — reliable ring + unreliable chords\n\n";

  util::Table table({"N", "policy", "realized D", "LEADERELECT rounds",
                     "flooding rounds", "success"});
  const std::vector<NodeId> sizes = quick
                                        ? std::vector<NodeId>{96, 384}
                                        : std::vector<NodeId>{96, 384, 1536};
  for (const NodeId n : sizes) {
  struct Case {
    const char* name;
    DualGraphPolicy policy;
    double p;
  };
  for (const Case c : {Case{"granted (p=1)", DualGraphPolicy::kRandom, 1.0},
                       Case{"random (p=0.5)", DualGraphPolicy::kRandom, 0.5},
                       Case{"off", DualGraphPolicy::kAdversarialOff, 0.0},
                       Case{"flaky (adaptive)", DualGraphPolicy::kFlaky, 0.0}}) {
    // The flaky policy's realized diameter depends on the protocol's coin
    // flips; measure it against the actual run below instead of a quiet
    // recording (a quiet all-receive recording would grant every chord).
    int diameter = c.policy == DualGraphPolicy::kFlaky
                       ? -1
                       : measuredDualDiameter(n, c.policy, c.p, 7);
    if (c.policy == DualGraphPolicy::kFlaky) {
      // Run a probe with the actual protocol recording topologies.
      proto::LeaderKnownDFactory probe_factory(n);  // budget irrelevant here
      sim::EngineConfig config;
      config.max_rounds = 3 * n;
      config.record_topologies = true;
      config.stop_when_all_done = false;
      sim::Engine engine(sim::createProcesses(probe_factory, n),
                         adv::makeRingWithChords(n, c.policy, c.p, 7), config,
                         7);
      engine.run();
      diameter = net::dynamicDiameter(engine.topologies(), 8);
      if (diameter < 0) {
        diameter = n;  // did not even cover within 3N rounds: at least ring-like
      }
    }
    if (diameter <= 0) {
      continue;
    }
    proto::LeaderKnownDFactory factory(diameter);
    const Round budget = proto::knownDRounds(diameter, n) + 1;
    sim::EngineConfig config;
    config.max_rounds = budget;
    sim::Engine engine(sim::createProcesses(factory, n),
                       adv::makeRingWithChords(n, c.policy, c.p, 8), config, 8);
    const auto result = engine.run();
    bool ok = result.all_done;
    for (NodeId v = 0; v < n && ok; ++v) {
      ok = engine.process(v).output() == static_cast<std::uint64_t>(n);
    }
    table.row()
        .cell(static_cast<std::int64_t>(n))
        .cell(c.name)
        .cell(diameter)
        .cell(result.all_done_round, 0)
        .cell(result.all_done_round / static_cast<double>(diameter), 1)
        .cell(ok ? 1.0 : 0.0, 2);
  }
  }
  std::cout << table.toString();
  std::cout
      << "\nReading: with chords granted/random the realized D is small and\n"
         "the Θ(D log N)-budget protocol succeeds; with chords off D grows\n"
         "to the ring's Θ(N) and the budget scales with it.  The adaptive\n"
         "flaky policy keeps the DEFINITIONAL D small while denying every\n"
         "chord transmission: at small N the ring still fits inside the\n"
         "Θ(D log N) budget, but once N outgrows it success collapses while\n"
         "D stays small — the [9] constant-diameter dual-graph effect, which is\n"
         "orthogonal to diameter knowledge (the paper's lower bounds, by\n"
         "contrast, hold under oblivious-after-coins constructions and are\n"
         "entirely about what the protocol knows in advance).\n";
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
