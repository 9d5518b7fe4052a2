// E6 — Theorem 8: the §7 unknown-diameter LEADERELECT protocol.
//
// Sweeps N × adversary with a valid estimate N' (|N'-N|/N <= 1/3 - c) and
// reports rounds, realized flooding rounds, the phase in which the leader
// declared, and correctness over Monte Carlo trials; plus a c-sweep showing
// the accuracy/cost trade (k grows as c shrinks).
#include <iostream>

#include "bench_common.h"
#include "protocols/leader_unknown_d.h"
#include "sim/batch.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using bench::makeAdversary;
using sim::NodeId;
using sim::Round;

struct Outcome {
  double rounds = 0;
  double flooding_rounds = 0;
  double success = 0;
  double declared_phase = 0;
};

Outcome runCase(const std::string& adv_name, NodeId n,
                const proto::LeaderConfig& config, int trials,
                std::uint64_t base_seed, int diameter) {
  const auto trial = [&](std::uint64_t seed, sim::TrialRecorder& rec) {
    proto::LeaderElectFactory factory(config, util::hashCombine(seed, 17));
    sim::EngineConfig engine_config;
    engine_config.max_rounds = 20'000'000;
    sim::Engine engine(sim::createProcesses(factory, n),
                       makeAdversary(adv_name, n, seed), engine_config, seed);
    const auto result = engine.run();
    bool ok = result.all_done;
    int declared = -1;
    if (result.all_done) {
      const std::uint64_t leader = engine.process(0).output();
      for (NodeId v = 0; v < n; ++v) {
        ok = ok && engine.process(v).output() == leader;
        const auto* lp =
            dynamic_cast<const proto::LeaderElectProcess*>(&engine.process(v));
        if (lp != nullptr && lp->declaredInPhase() >= 0) {
          declared = lp->declaredInPhase();
        }
      }
    }
    rec.set("rounds", static_cast<double>(result.all_done_round));
    rec.set("ok", ok ? 1.0 : 0.0);
    rec.set("phase", static_cast<double>(declared));
  };
  auto summary = sim::BatchRunner().run(trials, base_seed, trial);
  Outcome outcome;
  outcome.rounds = summary.metrics.at("rounds").mean();
  outcome.flooding_rounds = outcome.rounds / diameter;
  outcome.success = summary.metrics.at("ok").mean();
  outcome.declared_phase = summary.metrics.at("phase").mean();
  return outcome;
}

/// One instrumented LEADERELECT run on the bench's main thread when
/// observability was requested (the sink cannot ride inside BatchRunner
/// workers).
void instrumentedRun(bench::ObsSession& obs, NodeId n, int trials_seed) {
  proto::LeaderConfig config;
  config.n_estimate = 1.1 * n;
  config.c = 0.25;
  config.k = 64;
  proto::LeaderElectFactory factory(config, util::hashCombine(trials_seed, 17));
  sim::EngineConfig engine_config;
  engine_config.max_rounds = 20'000'000;
  engine_config.metrics = obs.sink();
  sim::Engine engine(sim::createProcesses(factory, n),
                     bench::makeAdversary("random_tree", n, trials_seed),
                     engine_config, static_cast<std::uint64_t>(trials_seed));
  engine.run();
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int trials = cli.intFlag("trials", 3, 1);
  const bool quick = cli.flag("quick");
  bench::ObsSession obs(cli);
  cli.rejectUnknown();

  std::cout
      << "E6 — Theorem 8: unknown-D LEADERELECT with a good estimate N'\n"
      << "(N' = 1.1 N, c = 0.25, k = 64 counting coordinates)\n\n";

  {
    util::Table table({"adversary", "N", "D", "rounds", "flooding rounds",
                       "declared phase", "success"});
    const std::vector<NodeId> sizes =
        quick ? std::vector<NodeId>{32, 128}
              : std::vector<NodeId>{32, 128, 512};
    for (const std::string adv_name :
         {"random_tree", "anchored_star", "rotating_star", "shuffle_path",
          "static_ring"}) {
      for (const NodeId n : sizes) {
        proto::LeaderConfig config;
        config.n_estimate = 1.1 * n;
        config.c = 0.25;
        config.k = 64;
        const int diameter = bench::measuredDiameter(adv_name, n, 5);
        const Outcome outcome =
            runCase(adv_name, n, config, trials, 900 + n, diameter);
        table.row()
            .cell(adv_name)
            .cell(static_cast<std::int64_t>(n))
            .cell(diameter)
            .cell(outcome.rounds, 0)
            .cell(outcome.flooding_rounds, 1)
            .cell(outcome.declared_phase, 1)
            .cell(outcome.success, 2);
      }
    }
    std::cout << table.toString() << "\n";
  }

  {
    std::cout << "c-sweep (random_tree, N = 128): smaller c tolerates worse\n"
                 "estimates but needs more counting coordinates k.\n\n";
    util::Table table({"c", "k", "N'/N", "rounds", "success"});
    const NodeId n = 128;
    for (const double c : {0.05, 0.15, 0.30}) {
      const double worst_skew = 1.0 + (1.0 / 3.0 - c) * 0.95;
      proto::LeaderConfig config;
      config.n_estimate = worst_skew * n;
      config.c = c;
      config.k = quick ? 64 : 0;  // 0 derives coordCountFor(c)
      const int diameter = bench::measuredDiameter("random_tree", n, 5);
      const Outcome outcome =
          runCase("random_tree", n, config, trials, 40 + static_cast<int>(c * 100),
                  diameter);
      table.row()
          .cell(c, 2)
          .cell(config.k > 0 ? config.k : proto::coordCountFor(c))
          .cell(worst_skew, 3)
          .cell(outcome.rounds, 0)
          .cell(outcome.success, 2);
    }
    std::cout << table.toString();
  }

  std::cout
      << "\nReading: success stays 1.00 across the zoo with D unknown to the\n"
         "protocol; flooding rounds track k·polylog(N) — they do NOT grow\n"
         "with the Ω((N/log N)^{1/4}) lower-bound envelope that applies when\n"
         "no good N' exists (Theorem 7).  That is the paper's punchline: a\n"
         "good estimate of N makes CONSENSUS/LEADERELECT insensitive to\n"
         "unknown diameter.\n";

  if (obs.sink() != nullptr) {
    instrumentedRun(obs, quick ? NodeId{32} : NodeId{128}, 932);
    obs.write();
  }
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
