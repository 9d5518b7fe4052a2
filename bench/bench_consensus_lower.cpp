// E5 — Theorem 7: the CONSENSUS lower bound, executed.
//
// The Λ+Υ composition makes N itself input-dependent: Υ (a second Λ) exists
// only when DISJ = 0, so neither party can know N — yet a single estimate
// N' = (4/3)·N_Λ is within 1/3 of both possible sizes, which is exactly the
// regime where the lower bound still bites (Theorem 7) and beyond which §7
// kills it (Theorem 8).
//
// The harness reports the mounting-point insulation (Ω(q) rounds before Υ
// can influence A_Λ), the optimistic consensus oracle's agreement failure
// on DISJ=0, the N' validity for both network sizes, the communication
// envelope, and simulation consistency.
#include <iostream>

#include "bench_common.h"
#include "lowerbound/reduction.h"
#include "protocols/majority.h"
#include "protocols/oracles.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using lb::ConsensusNetwork;
using sim::Round;

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int n_groups = cli.intFlag("n", 2, 1);
  const int oracle_rounds = cli.intFlag("oracle_rounds", 10, 0);
  const bool quick = cli.flag("quick");
  cli.rejectUnknown();

  std::cout << "E5 — Theorem 7 (CONSENSUS lower bound) reduction harness\n"
            << "Oracle: optimistic max-flood consensus deciding after "
            << oracle_rounds << " rounds.\n\n";

  util::Table table({"q", "disj", "N", "N'", "|N'-N|/N", "horizon",
                     "insulation", "oracle done@", "agreement", "claim",
                     "A->B bits", "B->A bits", "consistent"});
  std::vector<int> qs = quick ? std::vector<int>{29, 61}
                              : std::vector<int>{29, 61, 121, 241};
  util::Rng rng(777);
  for (const int q : qs) {
    for (const int disj : {1, 0}) {
      const cc::Instance inst = cc::randomInstance(n_groups, q, rng, disj);
      const ConsensusNetwork network(inst);
      const int key_bits = util::bitWidthFor(
          static_cast<std::uint64_t>(2 * network.lambda().numNodes()) + 2);
      const proto::ConsensusOracleFactory oracle(network.initialValues(),
                                                 key_bits, oracle_rounds);
      const lb::ReductionResult result =
          lb::runConsensusReduction(inst, oracle, rng.u64());

      // Mounting-point insulation: rounds before Υ's A can causally touch
      // Λ's A (only meaningful when Υ exists).
      std::string insulation = "n/a";
      if (network.hasUpsilon()) {
        sim::EngineConfig config;
        config.max_rounds = 2 * network.horizon() + 8;
        config.record_topologies = true;
        config.stop_when_all_done = false;
        sim::Engine probe(sim::createProcesses(oracle, network.numNodes()),
                          network.referenceAdversary(), config, rng.u64());
        probe.run();
        int first = -1;
        for (Round budget = 1; budget <= config.max_rounds; ++budget) {
          const auto reach = net::causalReach(probe.topologies(),
                                              network.upsilon().a(), 0, budget);
          if (net::bitmapTest(reach, network.lambda().a())) {
            first = budget;
            break;
          }
        }
        insulation = first > 0 ? std::to_string(first)
                               : (">" + std::to_string(config.max_rounds));
      }

      const double n_prime = network.nEstimate();
      const double rel_err =
          std::abs(n_prime - network.numNodes()) / network.numNodes();
      table.row()
          .cell(q)
          .cell(disj)
          .cell(static_cast<std::int64_t>(network.numNodes()))
          .cell(n_prime, 1)
          .cell(rel_err, 3)
          .cell(static_cast<std::int64_t>(network.horizon()))
          .cell(insulation)
          .cell(static_cast<std::int64_t>(result.monitor_done_round))
          .cell(result.oracle_output_correct ? "yes" : "NO")
          .cell(result.claimed_disj)
          .cell(result.bits_alice_to_bob)
          .cell(result.bits_bob_to_alice)
          .cell(result.simulation_consistent ? "yes" : "NO");
    }
  }
  std::cout << table.toString();
  std::cout
      << "\nReading: N doubles between DISJ=1 and DISJ=0 at the same q, yet\n"
         "|N'-N|/N stays exactly 1/3 for the shared estimate — the knife\n"
         "edge of Theorems 7 vs 8.  'insulation' exceeds the horizon: the Υ\n"
         "side (holding opposite inputs) cannot influence A_Λ in time, so\n"
         "the fast oracle violates agreement on DISJ=0 ('agreement' = NO)\n"
         "while being perfectly correct on DISJ=1.  A correct 1/18-error\n"
         "consensus protocol therefore needs Ω(q) rounds, i.e.\n"
         "Ω((N/log N)^{1/4}) flooding rounds.\n";
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
