// E3 — the paper's known-diameter trivial upper bounds (§1/§2): CFLOOD,
// LEADERELECT, CONSENSUS, MAX, and estimate-N all finish in O(log N)
// flooding rounds once D is known (CFLOOD in exactly one).
//
// For every adversary × N the harness measures the realized dynamic
// diameter D, hands it to the protocol, and reports rounds, flooding
// rounds (rounds / D), and correctness over Monte Carlo trials.
#include <iostream>

#include "bench_common.h"
#include "protocols/cflood.h"
#include "protocols/consensus_known_d.h"
#include "protocols/counting.h"
#include "protocols/max_flood.h"
#include "sim/batch.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using bench::makeAdversary;
using bench::makeEngine;
using sim::NodeId;
using sim::Round;

struct Row {
  std::string problem;
  std::string adversary;
  NodeId n;
  int diameter;
  double rounds;
  double flooding_rounds;
  double success;
};

Row runProblem(const std::string& problem, const std::string& adv_name,
               NodeId n, int diameter, int trials, std::uint64_t base_seed) {
  const auto trial = [&](std::uint64_t seed, sim::TrialRecorder& rec) {
    if (problem == "CFLOOD") {
      proto::CFloodFactory factory(0, 0x2a, 8, proto::FloodMode::kDeterministic,
                                   diameter);
      auto engine =
          makeEngine(factory, makeAdversary(adv_name, n, seed), diameter + 1, seed);
      const auto result = engine.run();
      rec.set("rounds", result.done_round[0]);
      rec.set("ok", proto::allHoldToken(engine) ? 1 : 0);
    } else if (problem == "LEADERELECT") {
      proto::LeaderKnownDFactory factory(diameter);
      const Round budget = proto::knownDRounds(diameter, n) + 1;
      auto engine =
          makeEngine(factory, makeAdversary(adv_name, n, seed), budget, seed);
      const auto result = engine.run();
      rec.set("rounds", result.all_done_round);
      bool ok = result.all_done;
      for (NodeId v = 0; v < n && ok; ++v) {
        ok = engine.process(v).output() == static_cast<std::uint64_t>(n);
      }
      rec.set("ok", ok ? 1 : 0);
    } else if (problem == "CONSENSUS") {
      std::vector<std::uint64_t> inputs;
      for (NodeId v = 0; v < n; ++v) {
        inputs.push_back(static_cast<std::uint64_t>(v % 2));
      }
      proto::ConsensusKnownDFactory factory(inputs, diameter);
      const Round budget = proto::knownDRounds(diameter, n) + 1;
      auto engine =
          makeEngine(factory, makeAdversary(adv_name, n, seed), budget, seed);
      const auto result = engine.run();
      rec.set("rounds", result.all_done_round);
      bool ok = result.all_done;
      const std::uint64_t expected = static_cast<std::uint64_t>((n - 1) % 2);
      for (NodeId v = 0; v < n && ok; ++v) {
        ok = engine.process(v).output() == expected;
      }
      rec.set("ok", ok ? 1 : 0);
    } else if (problem == "MAX") {
      std::vector<std::uint64_t> values;
      std::uint64_t max_value = 0;
      for (NodeId v = 0; v < n; ++v) {
        const auto value = static_cast<std::uint64_t>((v * 48271 + 11) % 65536);
        values.push_back(value);
        max_value = std::max(max_value, value);
      }
      // MAX via max-flood on (value-as-key): key bits widened to 17.
      proto::MaxFloodFactory factory(values, /*value_bits=*/17,
                                     proto::knownDRounds(diameter, n));
      const Round budget = proto::knownDRounds(diameter, n) + 1;
      // Object path: the loop below introspects MaxFloodProcess members.
      sim::EngineConfig config;
      config.max_rounds = budget;
      sim::Engine engine(sim::createProcesses(factory, n),
                         makeAdversary(adv_name, n, seed), config, seed);
      const auto result = engine.run();
      rec.set("rounds", result.all_done_round);
      bool ok = result.all_done;
      for (NodeId v = 0; v < n && ok; ++v) {
        const auto* p =
            dynamic_cast<const proto::MaxFloodProcess*>(&engine.process(v));
        ok = p != nullptr && p->bestValue() == values[static_cast<std::size_t>(
                                  p->bestKey() - 1)];
      }
      rec.set("ok", ok ? 1 : 0);
    } else {  // COUNT (estimate N / HEAR-FROM-N)
      const int k = 128;
      const Round rounds = proto::countingRounds(k, diameter, n, 3);
      proto::CountingFactory factory(k, rounds, seed);
      auto engine =
          makeEngine(factory, makeAdversary(adv_name, n, seed), rounds + 1, seed);
      const auto result = engine.run();
      rec.set("rounds", result.all_done_round);
      bool ok = result.all_done;
      for (NodeId v = 0; v < n && ok; v += std::max(1, n / 7)) {
        const auto* p =
            dynamic_cast<const proto::CountingProcess*>(&engine.process(v));
        ok = p != nullptr && std::abs(p->estimate() - n) < n / 3.0;
      }
      rec.set("ok", ok ? 1 : 0);
    }
  };
  auto summary = sim::BatchRunner().run(trials, base_seed, trial);
  Row row;
  row.problem = problem;
  row.adversary = adv_name;
  row.n = n;
  row.diameter = diameter;
  row.rounds = summary.metrics.at("rounds").mean();
  row.flooding_rounds = row.rounds / diameter;
  row.success = summary.metrics.at("ok").mean();
  return row;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int trials = cli.intFlag("trials", 4, 1);
  const bool quick = cli.flag("quick");
  cli.rejectUnknown();

  std::cout
      << "E3 — known-diameter upper bounds (paper §1/§2 trivial protocols)\n"
      << "Expectation: CFLOOD = exactly 1 flooding round; the rest stay\n"
      << "O(log N) flooding rounds across all adversaries and sizes.\n\n";

  util::Table table({"problem", "adversary", "N", "D", "rounds",
                     "flooding rounds", "log2 N", "success"});
  const std::vector<NodeId> sizes =
      quick ? std::vector<NodeId>{64} : std::vector<NodeId>{64, 256, 1024};
  for (const std::string problem :
       {"CFLOOD", "LEADERELECT", "CONSENSUS", "MAX", "COUNT"}) {
    for (const std::string adv_name :
         {"static_path", "random_tree", "anchored_star", "rotating_star", "interval"}) {
      for (const NodeId n : sizes) {
        const int diameter = bench::measuredDiameter(adv_name, n, 77);
        // Θ(D log N)-round problems on large-diameter networks get slow
        // (Θ(N log N) rounds and worse for COUNT); the shape is identical
        // at the sizes we keep.
        if (diameter > 64 && n > 64 && problem != "CFLOOD") {
          continue;
        }
        if (problem == "COUNT" && diameter > 64) {
          continue;
        }
        const Row row =
            runProblem(problem, adv_name, n, diameter, trials, 1000 + n);
        table.row()
            .cell(row.problem)
            .cell(row.adversary)
            .cell(static_cast<std::int64_t>(row.n))
            .cell(row.diameter)
            .cell(row.rounds, 1)
            .cell(row.flooding_rounds, 2)
            .cell(std::log2(static_cast<double>(row.n)), 1)
            .cell(row.success, 2);
      }
    }
  }
  std::cout << table.toString();
  std::cout << "\nReading: 'flooding rounds' for CFLOOD is 1.00 by\n"
               "construction; for the epidemic protocols it tracks a small\n"
               "multiple of log2 N (column shown), independent of N's growth\n"
               "— the paper's known-diameter baseline that unknown diameter\n"
               "destroys (see bench_cflood_lower / bench_gap).\n";
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
