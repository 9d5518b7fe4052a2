// E7 — the headline table: the exponential gap between known and unknown
// diameter, and where a good N' estimate restores cheapness.
//
// For a sweep of N on a low-diameter dynamic network (anchored star (permanent hub + per-round churn),
// D = 2), four columns in flooding rounds:
//   known-D        — max-flood leader election given D (O(log N)),
//   §7 unknown-D   — Theorem 8's protocol with a good N' (k·polylog N),
//   pessimistic    — unknown D, no usable N': assume D = N (Θ(N log N)),
//   LB envelope    — the Ω((N/log N)^{1/4}) floor any correct protocol
//                    must pay when no good estimate exists (Theorems 6/7).
// The shape to see: column 1 and the envelope diverge exponentially (in
// the exponent of N); column 2 stays polylog and crosses below column 3.
#include <iostream>

#include "bench_common.h"
#include "protocols/consensus_known_d.h"
#include "protocols/leader_unknown_d.h"
#include "sim/batch.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using bench::makeAdversary;
using bench::makeEngine;
using sim::NodeId;
using sim::Round;

double knownDFloodingRounds(NodeId n, int diameter, int trials,
                            std::uint64_t base_seed) {
  const auto trial = [&](std::uint64_t seed, sim::TrialRecorder& rec) {
    proto::LeaderKnownDFactory factory(diameter);
    const Round budget = proto::knownDRounds(diameter, n) + 1;
    auto engine = makeEngine(factory, makeAdversary("anchored_star", n, seed),
                             budget, seed);
    const auto result = engine.run();
    rec.set("rounds", static_cast<double>(result.all_done_round));
  };
  auto summary = sim::BatchRunner().run(trials, base_seed, trial);
  return summary.metrics.at("rounds").mean() / diameter;
}

double unknownDFloodingRounds(NodeId n, int diameter, int trials,
                              std::uint64_t base_seed) {
  const auto trial = [&](std::uint64_t seed, sim::TrialRecorder& rec) {
    proto::LeaderConfig config;
    config.n_estimate = 1.1 * n;
    config.c = 0.25;
    config.k = 64;
    proto::LeaderElectFactory factory(config, util::hashCombine(seed, 3));
    sim::EngineConfig engine_config;
    engine_config.max_rounds = 30'000'000;
    sim::Engine engine(sim::createProcesses(factory, n),
                       makeAdversary("anchored_star", n, seed), engine_config,
                       seed);
    const auto result = engine.run();
    rec.set("rounds", static_cast<double>(result.all_done_round));
  };
  auto summary = sim::BatchRunner().run(trials, base_seed, trial);
  return summary.metrics.at("rounds").mean() / diameter;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int trials = cli.intFlag("trials", 3, 1);
  const bool quick = cli.flag("quick");
  cli.rejectUnknown();

  std::cout
      << "E7 — the cost of unknown diameter (flooding rounds, anchored star (permanent hub + per-round churn),"
         " D = 2)\n\n";

  util::Table table({"N", "known D", "unknown D + good N' (Thm 8)",
                     "pessimistic D:=N", "LB envelope (N/logN)^(1/4)",
                     "pessimistic / Thm8"});
  const std::vector<NodeId> sizes = quick
                                        ? std::vector<NodeId>{64, 256}
                                        : std::vector<NodeId>{64, 256, 1024, 2048};
  const int diameter = 2;
  for (const NodeId n : sizes) {
    const double known = knownDFloodingRounds(n, diameter, trials, 50 + n);
    const double thm8 = unknownDFloodingRounds(n, diameter, trials, 70 + n);
    // The pessimistic baseline runs the known-D protocol with D := N; it
    // costs exactly knownDRounds(N, N) rounds regardless of the realized D.
    const double pessimistic =
        static_cast<double>(proto::knownDRounds(n, n)) / diameter;
    const double envelope =
        std::pow(static_cast<double>(n) / std::log2(static_cast<double>(n)),
                 0.25);
    table.row()
        .cell(static_cast<std::int64_t>(n))
        .cell(known, 1)
        .cell(thm8, 1)
        .cell(pessimistic, 1)
        .cell(envelope, 2)
        .cell(pessimistic / thm8, 2);
  }
  std::cout << table.toString();
  std::cout
      << "\nReading: with D known, leader election needs a few dozen\n"
         "flooding rounds (Θ(log N)).  Without D and without a usable N',\n"
         "correctness forces the Ω((N/log N)^{1/4}) envelope (col 5) — an\n"
         "exponential gap in N's exponent — and practical deployments pay\n"
         "the pessimistic Θ(N log N) (col 4).  Theorem 8's protocol (col 3)\n"
         "needs only a good N': its cost is k·polylog(N), so the ratio in\n"
         "the last column grows with N — the paper's 'sometimes this large\n"
         "cost can be completely avoided'.\n";
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
