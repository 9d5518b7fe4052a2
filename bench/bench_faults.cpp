// E-F — Robustness: protocol hardening under crash/loss/corruption faults.
//
// Sweeps per-delivery drop probability x crash fraction on the random-graph
// adversary (G(n,p) U spanning tree — the live subgraph stays connected whp
// when nodes crash, unlike the tree-only zoo) and reports, per cell:
//
//   * ResilientFlood: Monte Carlo success rate (every live node holds the
//     token and the run quiesced), mean rounds, mean payload bits, and the
//     bit overhead relative to the protocol's own fault-free run — the
//     price of soliciting + re-sending + checksum framing,
//   * robust LEADERELECT: success rate (all survivors terminated, agreed,
//     and elected a live leader), model violations, mean rounds.
//
// The fault-free deterministic FloodProcess is printed as the absolute
// baseline: it is cheaper than ResilientFlood when nothing fails and
// useless the moment deliveries start disappearing (it never re-sends).
#include <iostream>
#include <string>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "bench_common.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "protocols/flood.h"
#include "protocols/resilient_flood.h"
#include "protocols/robust_leader.h"
#include "sim/batch.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

using sim::NodeId;
using sim::Round;

struct FloodCell {
  double success = 0;
  double violations = 0;
  double rounds = 0;
  double bits = 0;
  double dropped = 0;
  double corrupted = 0;
};

FloodCell runFloodCell(NodeId n, double edge_p, double drop, double corrupt,
                       double crash, int trials, std::uint64_t base_seed) {
  const auto trial = [&](std::uint64_t seed, sim::TrialRecorder& rec) {
    proto::ResilientFloodConfig config;
    proto::ResilientFloodFactory factory(config);
    sim::EngineConfig engine_config;
    engine_config.max_rounds = 5000;
    sim::Engine engine(sim::createProcesses(factory, n),
                       std::make_unique<adv::RandomGraphAdversary>(
                           n, edge_p, util::hashCombine(seed, 1)),
                       engine_config, seed);
    faults::FaultConfig fc;
    fc.drop_prob = drop;
    fc.corrupt_prob = corrupt;
    fc.deliver_corrupted = true;  // framing must earn its keep
    fc.crash_fraction = crash;
    fc.crash_window = 32;
    auto injector = std::make_shared<const faults::FaultInjector>(
        faults::FaultPlan(n, fc, util::hashCombine(seed, 0xFA)), &factory);
    engine.setFaultInjector(injector);

    bool ok = true;
    bool violation = false;
    try {
      const sim::RunResult result = engine.run();
      ok = result.all_done;
      for (NodeId v = 0; v < n; ++v) {
        if (injector->isCrashed(v, engine.currentRound())) {
          continue;
        }
        ok = ok && static_cast<const proto::ResilientFloodProcess&>(
                       engine.process(v))
                       .hasToken();
      }
    } catch (const util::CheckError&) {
      ok = false;  // live subgraph disconnected: failed trial, not a crash
      violation = true;
    }
    const sim::RunResult& result = engine.result();
    rec.set("success", ok ? 1.0 : 0.0);
    rec.set("violation", violation ? 1.0 : 0.0);
    rec.set("rounds", static_cast<double>(result.rounds_executed));
    rec.set("bits", static_cast<double>(result.bits_sent));
    rec.set("dropped", static_cast<double>(result.messages_dropped));
    rec.set("corrupted", static_cast<double>(result.messages_corrupted));
  };
  const auto summary = sim::BatchRunner().run(trials, base_seed, trial);
  FloodCell cell;
  cell.success = summary.metrics.at("success").mean();
  cell.violations = summary.metrics.at("violation").mean();
  cell.rounds = summary.metrics.at("rounds").mean();
  cell.bits = summary.metrics.at("bits").mean();
  cell.dropped = summary.metrics.at("dropped").mean();
  cell.corrupted = summary.metrics.at("corrupted").mean();
  return cell;
}

/// Fault-free deterministic flood reference: rounds until every node holds
/// the token, and the bits spent getting there.
void printDeterministicBaseline(NodeId n, double edge_p, int trials,
                                std::uint64_t base_seed) {
  const auto trial = [&](std::uint64_t seed, sim::TrialRecorder& rec) {
    proto::FloodFactory factory(0, 0x5a, 8, proto::FloodMode::kDeterministic,
                                /*halt_round=*/n);
    sim::EngineConfig engine_config;
    engine_config.max_rounds = n;
    sim::Engine engine(sim::createProcesses(factory, n),
                       std::make_unique<adv::RandomGraphAdversary>(
                           n, edge_p, util::hashCombine(seed, 1)),
                       engine_config, seed);
    const sim::RunResult result = engine.run();
    Round spread = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto& p =
          static_cast<const proto::FloodProcess&>(engine.process(v));
      spread = std::max(spread, p.tokenRound());
    }
    rec.set("spread", static_cast<double>(spread));
    rec.set("bits", static_cast<double>(result.bits_sent));
  };
  const auto summary = sim::BatchRunner().run(trials, base_seed, trial);
  std::cout << "Fault-free deterministic FloodProcess reference (N = " << n
            << "): token spread in " << summary.metrics.at("spread").mean()
            << " rounds, " << summary.metrics.at("bits").mean()
            << " payload bits (no re-sends, no checksums — and no tolerance"
               " for a single lost delivery).\n\n";
}

void floodSweep(NodeId n, const std::vector<double>& drops,
                const std::vector<double>& crashes, int trials) {
  const double edge_p = 0.25;
  std::cout << "ResilientFlood on RandomGraphAdversary(N = " << n
            << ", p = " << edge_p << "), corrupt_prob = drop_prob/2, "
            << trials << " trials per cell.\n"
            << "overhead = payload bits / fault-free ResilientFlood bits.\n\n";
  printDeterministicBaseline(n, edge_p, trials, 0xBA5E);

  util::Table table({"drop", "crash", "success", "violations", "rounds",
                     "bits", "overhead", "dropped", "corrupted"});
  double baseline_bits = 0;
  std::uint64_t cell_seed = 0xF100D;
  for (const double crash : crashes) {
    for (const double drop : drops) {
      const FloodCell cell =
          runFloodCell(n, edge_p, drop, drop / 2, crash, trials, cell_seed);
      cell_seed = util::hashCombine(cell_seed, 1);
      if (baseline_bits == 0) {
        baseline_bits = cell.bits;  // first cell is the fault-free run
      }
      table.row()
          .cell(drop, 2)
          .cell(crash, 2)
          .cell(cell.success, 2)
          .cell(cell.violations, 2)
          .cell(cell.rounds, 1)
          .cell(cell.bits, 0)
          .cell(baseline_bits > 0 ? cell.bits / baseline_bits : 0.0, 2)
          .cell(cell.dropped, 0)
          .cell(cell.corrupted, 0);
    }
  }
  std::cout << table.toString() << "\n";
}

void leaderSweep(NodeId n, const std::vector<double>& drops,
                 const std::vector<double>& crashes, int trials) {
  const double edge_p = 0.3;
  std::cout << "Robust LEADERELECT (checksum-framed, evaluated not asserted)\n"
            << "on RandomGraphAdversary(N = " << n << ", p = " << edge_p
            << "), N' = 1.1 N, " << trials << " trials per cell.\n\n";
  util::Table table({"drop", "crash", "success", "completed", "violations",
                     "live frac", "rounds"});
  std::uint64_t cell_seed = 0x1EAD;
  for (const double crash : crashes) {
    for (const double drop : drops) {
      const auto trial = [&](std::uint64_t seed, sim::TrialRecorder& rec) {
        proto::LeaderConfig config;
        config.n_estimate = 1.1 * n;
        faults::FaultConfig fc;
        fc.drop_prob = drop;
        fc.corrupt_prob = drop / 2;
        fc.deliver_corrupted = true;
        fc.crash_fraction = crash;
        fc.crash_window = 64;
        const proto::RobustLeaderOutcome outcome =
            proto::runRobustLeaderElection(
                config,
                std::make_unique<adv::RandomGraphAdversary>(
                    n, edge_p, util::hashCombine(seed, 1)),
                fc, /*max_rounds=*/2'000'000, seed);
        rec.set("success", outcome.success ? 1.0 : 0.0);
        rec.set("completed", outcome.completed ? 1.0 : 0.0);
        rec.set("violation", outcome.model_violation ? 1.0 : 0.0);
        rec.set("live", outcome.live_fraction);
        rec.set("rounds", static_cast<double>(outcome.rounds));
      };
      const auto summary = sim::BatchRunner().run(trials, cell_seed, trial);
      cell_seed = util::hashCombine(cell_seed, 1);
      table.row()
          .cell(drop, 2)
          .cell(crash, 2)
          .cell(summary.metrics.at("success").mean(), 2)
          .cell(summary.metrics.at("completed").mean(), 2)
          .cell(summary.metrics.at("violation").mean(), 2)
          .cell(summary.metrics.at("live").mean(), 2)
          .cell(summary.metrics.at("rounds").mean(), 0);
    }
  }
  std::cout << table.toString() << "\n";
}

/// One instrumented fault-injected ResilientFlood run on the main thread
/// when observability was requested (the sink cannot ride inside
/// BatchRunner workers).  Captures the faults/* counters and
/// retransmission metrics.
void instrumentedRun(bench::ObsSession& obs, NodeId n, std::uint64_t seed) {
  proto::ResilientFloodFactory factory{proto::ResilientFloodConfig{}};
  sim::EngineConfig engine_config;
  engine_config.max_rounds = 5000;
  engine_config.metrics = obs.sink();
  sim::Engine engine(sim::createProcesses(factory, n),
                     std::make_unique<adv::RandomGraphAdversary>(
                         n, 0.25, util::hashCombine(seed, 1)),
                     engine_config, seed);
  faults::FaultConfig fc;
  fc.drop_prob = 0.1;
  fc.corrupt_prob = 0.05;
  fc.deliver_corrupted = true;
  fc.crash_fraction = 0.1;
  fc.crash_window = 32;
  engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
      faults::FaultPlan(n, fc, util::hashCombine(seed, 0xFA)), &factory));
  try {
    engine.run();
  } catch (const util::CheckError&) {
    // Live subgraph disconnected: the partial run's metrics still stand.
    engine.finalizeMetrics();
  }
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = cli.flag("quick");
  const int trials = cli.intFlag("trials", quick ? 5 : 20, 1);
  const NodeId n = cli.intFlag("n", 64, 2);
  bench::ObsSession obs(cli);
  cli.rejectUnknown();

  std::cout << "E-F — fault injection: crash-stop, loss, and corruption\n"
            << "(every fault a pure function of the plan seed; an all-zero\n"
            << "plan reproduces the clean engine byte for byte)\n\n";

  const std::vector<double> drops =
      quick ? std::vector<double>{0.0, 0.1}
            : std::vector<double>{0.0, 0.01, 0.1, 0.3};
  const std::vector<double> crashes =
      quick ? std::vector<double>{0.0, 0.1}
            : std::vector<double>{0.0, 0.1, 0.25};
  floodSweep(n, drops, crashes, trials);

  const std::vector<double> leader_drops =
      quick ? std::vector<double>{0.0, 0.02}
            : std::vector<double>{0.0, 0.01, 0.05};
  const std::vector<double> leader_crashes =
      quick ? std::vector<double>{0.0} : std::vector<double>{0.0, 0.1};
  leaderSweep(quick ? 16 : 32, leader_drops, leader_crashes,
              quick ? std::max(3, trials / 2) : trials);

  std::cout
      << "Reading: ResilientFlood holds its success rate through 10%\n"
         "per-delivery loss by paying bit overhead (solicit beacons +\n"
         "capped-backoff re-sends + 8-bit checksums); the deterministic\n"
         "flood baseline is cheaper only in the fault-free column.  The\n"
         "hardened LEADERELECT degrades gracefully: corruption is detected\n"
         "and dropped by framing, crashes lower the success rate (a crashed\n"
         "max-id node can strand the election) but never crash the harness.\n";

  if (obs.sink() != nullptr) {
    instrumentedRun(obs, n, 0xF100D);
    obs.write();
  }
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
