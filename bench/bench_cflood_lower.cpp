// E4 — Theorem 6: the CFLOOD lower bound, executed.
//
// For a sweep of q (and hence N = 3nq+4), the harness runs the full
// two-party reduction on DISJ=1 and DISJ=0 instances:
//   * the composed network's realized diameter (O(1) vs Ω(q) dichotomy),
//   * the optimistic oracle's termination and output correctness (fast ⇒
//     wrong on DISJ=0 — the impossibility at the heart of the theorem),
//   * Alice↔Bob communication, which must track O(s·log N) per the
//     simulation argument, set against the Ω(n/q²) DISJOINTNESSCP bound,
//   * exact cross-validation of both parties' simulations (Lemma 5).
#include <iostream>

#include "bench_common.h"
#include "lowerbound/reduction.h"
#include "lowerbound/spoiled.h"
#include "protocols/cflood.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using lb::CFloodNetwork;
using sim::Round;

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int n_groups = cli.intFlag("n", 2, 1);
  const int wait_rounds = cli.intFlag("oracle_wait", 12, 0);
  const bool quick = cli.flag("quick");
  bench::ObsSession obs(cli);
  cli.rejectUnknown();

  std::cout
      << "E4 — Theorem 6 (CFLOOD lower bound) reduction harness\n"
      << "Oracle: deterministic flood-and-wait(" << wait_rounds
      << ") — a correct 1/6-error CFLOOD whenever the realized diameter is\n"
      << "within its assumption, i.e. on every DISJ=1 network of the "
         "family.\n\n";

  util::Table table({"q", "N", "disj", "horizon", "diam(realized)",
                     "oracle done@", "output ok", "holders", "claim",
                     "A->B bits", "B->A bits", "bits/(horizon*logN)",
                     "consistent"});
  std::vector<int> qs = quick ? std::vector<int>{29, 61}
                              : std::vector<int>{29, 61, 121, 241, 481};
  util::Rng rng(4242);
  for (const int q : qs) {
    for (const int disj : {1, 0}) {
      const cc::Instance inst = cc::randomInstance(n_groups, q, rng, disj);
      const CFloodNetwork network(inst);
      const proto::CFloodFactory oracle(network.source(), 0x2a, 8,
                                        proto::FloodMode::kDeterministic,
                                        wait_rounds);
      const lb::ReductionResult result =
          lb::runCFloodReduction(inst, oracle, rng.u64());

      // Realized diameter of the composed network over the horizon (the
      // DISJ=0 case cannot finish within it: report horizon+ as a floor).
      sim::EngineConfig config;
      config.max_rounds = network.horizon();
      config.record_topologies = true;
      config.stop_when_all_done = false;
      // Instrument the first cell's probe run; the lower-bound chain's
      // spoiled-node profile rides along (O(s) staying O(s) is what keeps
      // the simulation's bit budget honest).
      const bool instrument = obs.sink() != nullptr && q == qs.front();
      if (instrument && disj == 1) {
        config.metrics = obs.sink();
        for (const auto party : {lb::Party::kAlice, lb::Party::kBob}) {
          lb::exportSpoiledMetrics(
              network.spoiledFrom(party), network.horizon(), obs.registry(),
              party == lb::Party::kAlice ? "lb/alice/" : "lb/bob/");
        }
      }
      sim::Engine probe(sim::createProcesses(oracle, network.numNodes()),
                        network.referenceAdversary(), config, rng.u64());
      probe.run();
      const int ecc = net::causalEccentricity(probe.topologies(),
                                              network.source(), 0);
      const std::string diam =
          ecc > 0 ? std::to_string(ecc) : (">" + std::to_string(network.horizon()));

      // The simulation argument's accounting: total exchanged bits divided
      // by horizon*log2(N) should be a constant across the sweep — the
      // O(s log N) envelope with its constant made visible.
      const double normalized =
          static_cast<double>(result.bits_alice_to_bob +
                              result.bits_bob_to_alice) /
          (static_cast<double>(result.horizon) *
           util::bitWidthFor(static_cast<std::uint64_t>(network.numNodes())));

      table.row()
          .cell(q)
          .cell(static_cast<std::int64_t>(network.numNodes()))
          .cell(disj)
          .cell(static_cast<std::int64_t>(result.horizon))
          .cell(diam)
          .cell(static_cast<std::int64_t>(result.monitor_done_round))
          .cell(result.oracle_output_correct ? "yes" : "NO")
          .cell(result.token_holders_at_horizon)
          .cell(result.claimed_disj)
          .cell(result.bits_alice_to_bob)
          .cell(result.bits_bob_to_alice)
          .cell(normalized, 2)
          .cell(result.simulation_consistent ? "yes" : "NO");
    }
  }
  std::cout << table.toString();
  std::cout
      << "\nReading: DISJ=1 rows — diameter stays O(1) (<= 10) while N grows,\n"
         "the oracle terminates at its wait and its output is correct, and\n"
         "Alice's claim is right.  DISJ=0 rows — the source cannot reach the\n"
         "|0,0 line within the horizon (diam > horizon), so the SAME fast\n"
         "oracle's output is provably wrong (holders < N): a correct CFLOOD\n"
         "protocol must instead run Ω(q) rounds.  The normalized column\n"
         "bits/(horizon*logN) is constant across the sweep — the O(s log N)\n"
         "envelope with its constant visible — which is what turns the\n"
         "Ω(n/q²) DISJOINTNESSCP bound into Theorem 6's Ω((N/log N)^{1/4})\n"
         "flooding-round bound.  'consistent' = both parties' simulations\n"
         "matched the reference execution action-for-action.\n";
  obs.write();
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
