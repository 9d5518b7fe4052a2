// E-MOTIVATION — k-token gossip and the pessimistic-D tax (paper §1).
//
// Dissemination protocols take D as an input parameter; without knowledge
// of D one "is forced to pessimistically set D = N".  This bench measures,
// for k-token gossip across the zoo: the actual completion round, the
// known-D round budget, and the pessimistic D:=N budget — the waste factor
// is the concrete cost the paper's question is about.
#include <iostream>

#include "bench_common.h"
#include "protocols/gossip.h"
#include "sim/batch.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using bench::makeAdversary;
using sim::NodeId;
using sim::Round;

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = bench::quickMode(cli);
  const int trials = cli.intFlag("trials", quick ? 2 : 3, 1);
  cli.rejectUnknown();
  std::cout << "k-token gossip — completion vs known-D budget vs pessimistic "
               "D := N budget\n\n";
  util::Table table({"adversary", "N", "k", "completed@ (mean)",
                     "budget(D)", "budget(N)", "pessimistic waste", "success"});
  for (const std::string adv_name : {"random_tree", "anchored_star", "interval"}) {
    const std::vector<NodeId> sizes =
        quick ? std::vector<NodeId>{64} : std::vector<NodeId>{64, 256};
    const std::vector<int> ks =
        quick ? std::vector<int>{4, 16} : std::vector<int>{4, 16, 64};
    for (const NodeId n : sizes) {
      const int diameter = bench::measuredDiameter(adv_name, n, 3);
      for (const int k : ks) {
        const Round budget_d = proto::gossipRounds(k, diameter, n);
        const Round budget_n = proto::gossipRounds(k, n, n);
        const auto trial = [&](std::uint64_t seed, sim::TrialRecorder& rec) {
          proto::GossipFactory factory(k, budget_d);
          // Object path: the loop below introspects GossipProcess members.
          sim::EngineConfig config;
          config.max_rounds = budget_d + 1;
          sim::Engine engine(sim::createProcesses(factory, n),
                             makeAdversary(adv_name, n, seed), config, seed);
          engine.run();
          Round completed = -1;
          bool all = true;
          for (NodeId v = 0; v < n; ++v) {
            const auto* p =
                dynamic_cast<const proto::GossipProcess*>(&engine.process(v));
            all = all && p != nullptr && p->hasAll();
            if (p != nullptr) {
              completed = std::max(completed, p->completeRound());
            }
          }
          rec.set("completed", static_cast<double>(completed));
          rec.set("ok", all ? 1.0 : 0.0);
        };
        auto summary = sim::BatchRunner().run(trials, 600 + n + k, trial);
        table.row()
            .cell(adv_name)
            .cell(static_cast<std::int64_t>(n))
            .cell(k)
            .cell(summary.metrics.at("completed").mean(), 0)
            .cell(static_cast<std::int64_t>(budget_d))
            .cell(static_cast<std::int64_t>(budget_n))
            .cell(static_cast<double>(budget_n) / budget_d, 1)
            .cell(summary.metrics.at("ok").mean(), 2);
      }
    }
  }
  std::cout << table.toString();
  std::cout
      << "\nReading: gossip completes comfortably inside the known-D budget\n"
         "(success 1.00), but a deployment that cannot assume D must run the\n"
         "D := N budget — the waste factor column.  Making that tax\n"
         "avoidable is exactly what the paper investigates: for CFLOOD the\n"
         "tax is unavoidable (Theorem 6); for consensus/leader election it\n"
         "disappears given a good N' (Theorem 8).\n";
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
