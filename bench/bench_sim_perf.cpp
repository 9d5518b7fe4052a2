// E9 — infrastructure throughput: the round engine, the dynamic-diameter
// solver and the Γ/Λ topology builder behind the paper's experiments, and
// pairwise comparisons of engine configurations.
//
//   bench_sim_perf [--quick] [--json-out=PATH] [MODE...]
//
// With no MODE it runs throughput and the three comparison modes, the rows
// of the committed BENCH_sim_perf.json; `scale` runs only when named (its
// study lives in BENCH_scale.json).  Every requested mode lands in one JSON
// file, BENCH_sim_perf.json in the working directory unless --json-out=PATH.
// --quick runs every mode at its smallest sizes.
//
//   throughput           four suites, each size timed over one untimed and
//                        7 timed repetitions (median and quartiles):
//                          engine_flood        randomized flood on the
//                            rotating star (flood's SoA model), 256 rounds,
//                            n = 256, 1024, 4096: node-rounds/s;
//                          engine_random_tree  a random babbler on objects
//                            over a fresh random tree every round, 128
//                            rounds, n = 256, 1024: node-rounds/s;
//                          dynamic_diameter    the all-sources dynamic
//                            diameter over 9 start rounds (one pool index
//                            each) of 3n shuffled-path rounds, n = 256,
//                            1024: ms per solve;
//                          gamma_lambda        topologies of the Γ+Λ
//                            reference adversary of a q = 61 and 241
//                            CFLOOD network, 1024 per repetition cycling
//                            its horizon: µs per topology.
//                        An engine repetition builds and runs a fresh
//                        engine; the diameter's rounds and the network are
//                        built once per size, outside the timing.
//   batch-vs-sequential  trials/sec of the historical sequential loop
//                        (per-round topology rebuild, map-merged metrics,
//                        one thread) against sim::BatchRunner on the
//                        current defaults (prebuilt periodic topologies,
//                        topology deltas, trials fanned out over the
//                        shared pool).  Both legs build a fresh Engine per
//                        seed.
//   delta-vs-rebuild     EdgeChurn workload, only the topology path
//                        differs: the adversary itself vs the same adversary
//                        wrapped in sim::RebuildEveryRound.
//   soa-vs-objects       single-core BatchRunner vs BatchRunner, only the
//                        state representation differs — per-node Process
//                        objects (sim::createProcesses) vs flood's flat
//                        column store (sim/soa.h).
//   scale                one engine at a time, flood over 16-edge churn
//                        (the repository benchmark's flood_large shape) at
//                        n = 8192, 32768, 262144 and 10^6 for 128 rounds:
//                        median and quartiles of ns per node-round over 7
//                        repetitions, on the pool DYNET_THREADS gives this
//                        process, with the node-range chunk count the
//                        engine derived and a digest of each run's results.
//                        Run it once per DYNET_THREADS setting and compare
//                        the files (BENCH_scale.json).
//
// Every comparison mode runs randomized flood and verifies the two legs
// agree metric for metric (exact summary equality) before reporting — a
// mismatch means the new hot path changed behaviour, and the bench exits
// 1, as it does when a leg that should run flood's SoA model runs on
// objects.  The scale mode requires every repetition of a size to end in
// the same digest.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/static_adversaries.h"
#include "bench_common.h"
#include "campaign/spec.h"
#include "cc/disjointness_cp.h"
#include "lowerbound/composition.h"
#include "protocols/flood.h"
#include "protocols/oracles.h"
#include "sim/batch.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dynet {
namespace {

/// Seconds `body()` takes.
template <typename Body>
double timed(Body body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Median and quartiles of a per-repetition figure.
struct Spread {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Calls `rep(i)` once untimed (i = -1: first allocations, code paging)
/// and then for i = 0 .. reps - 1, and returns the median and quartiles of
/// the figures the timed calls return.
template <typename Rep>
Spread overReps(int reps, Rep rep) {
  util::Summary figures;
  for (int i = -1; i < reps; ++i) {
    const double figure = rep(i);
    if (i >= 0) {
      figures.add(figure);
    }
  }
  return {figures.percentile(0.25), figures.median(),
          figures.percentile(0.75)};
}

/// One mode's part of the JSON file.
struct ModeReport {
  std::string mode;
  std::string workload;           // omitted when each row names its own
  std::vector<std::string> rows;  // one JSON object per result
};

/// The workload every comparison mode executes: randomized flood from node
/// 0, done only past the horizon, so every trial runs all `rounds` rounds.
/// The caller supplies the adversary so the two legs can differ in *how*
/// the topologies are produced while the topology values stay identical,
/// and `objects` pins the per-node Process path so the legs can differ in
/// *how* rounds execute while the results stay identical.  Otherwise the
/// engine must run flood's SoA model: on objects, soa-vs-objects would time
/// objects against objects and still pass its equality check.
sim::RunResult runWorkloadTrial(sim::NodeId n, sim::Round rounds,
                                std::uint64_t seed,
                                std::unique_ptr<sim::Adversary> adversary,
                                bool objects = false) {
  const proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kRandomized,
                                    rounds + 1);
  if (objects) {
    sim::EngineConfig config;
    config.max_rounds = rounds;
    return sim::Engine(sim::createProcesses(factory, n), std::move(adversary),
                       config, seed)
        .run();
  }
  sim::Engine engine =
      bench::makeEngine(factory, std::move(adversary), rounds, seed);
  DYNET_CHECK(engine.soaActive())
      << "flood's factory engine runs on objects, not its SoA model";
  return engine.run();
}

// ---------------------------------------------------------- throughput mode

/// throughput: the four suites of the header, the first size of each under
/// --quick, with 3 timed repetitions instead of 7.
ModeReport runThroughput(bool quick) {
  const int reps = quick ? 3 : 7;
  const auto sizes = [&](std::vector<int> all) {
    all.resize(quick ? 1 : all.size());
    return all;
  };
  ModeReport report{"throughput", "", {}};
  const auto add = [&](const std::string& suite, const std::string& workload,
                       std::int64_t n, std::int64_t rounds,
                       const std::string& unit, const Spread& s) {
    std::ostringstream row;
    row << "{\"suite\": \"" << suite << "\", \"workload\": \"" << workload
        << "\", \"n\": " << n << ", \"rounds\": " << rounds
        << ", \"reps\": " << reps << ", \"unit\": \"" << unit
        << "\", \"q1\": " << s.q1 << ", \"median\": " << s.median
        << ", \"q3\": " << s.q3 << "}";
    report.rows.push_back(row.str());
    std::cout << "throughput " << suite << " n=" << n << ": " << s.median
              << " " << unit << " [" << s.q1 << ", " << s.q3 << "] over "
              << reps << " reps\n";
  };

  constexpr sim::Round kFloodRounds = 256;
  for (const sim::NodeId n : sizes({256, 1024, 4096})) {
    add("engine_flood", "flood/rotating_star", n, kFloodRounds,
        "node_rounds_per_sec", overReps(reps, [&](int) {
          return n * kFloodRounds / timed([&] {
                   runWorkloadTrial(
                       n, kFloodRounds, 7,
                       bench::makeAdversary("rotating_star", n, 42));
                 });
        }));
  }
  constexpr sim::Round kTreeRounds = 128;
  const proto::RandomBabblerFactory babbler(24);
  for (const sim::NodeId n : sizes({256, 1024})) {
    add("engine_random_tree", "babbler/random_tree", n, kTreeRounds,
        "node_rounds_per_sec", overReps(reps, [&](int) {
          return n * kTreeRounds / timed([&] {
                   bench::makeEngine(babbler,
                                     bench::makeAdversary("random_tree", n, 42),
                                     kTreeRounds, 7)
                       .run();
                 });
        }));
  }
  for (const sim::NodeId n : sizes({256, 1024})) {
    auto adversary = bench::makeAdversary("shuffle_path", n, 9);
    net::TopologySeq topologies;
    std::vector<sim::Action> receiving(static_cast<std::size_t>(n));
    for (sim::Round r = 1; r <= 3 * n; ++r) {
      topologies.push_back(adversary->topology(r, {receiving}));
    }
    add("dynamic_diameter", "shuffle_path", n, 3 * n, "ms_per_solve",
        overReps(reps, [&](int) {
          return 1e3 * timed([&] {
                   DYNET_CHECK(net::dynamicDiameter(topologies, 8) > 0);
                 });
        }));
  }
  constexpr int kTopologies = 1024;
  for (const int q : sizes({61, 241})) {
    util::Rng rng(4);
    const cc::Instance inst = cc::randomInstance(2, q, rng, 0);
    const lb::CFloodNetwork network(inst);
    auto adversary = network.referenceAdversary();
    std::vector<sim::Action> receiving(
        static_cast<std::size_t>(network.numNodes()));
    add("gamma_lambda", "cflood_reference/q" + std::to_string(q),
        network.numNodes(), kTopologies, "us_per_topology",
        overReps(reps, [&](int) {
          return 1e6 / kTopologies * timed([&] {
                   for (int i = 0; i < kTopologies; ++i) {
                     adversary->topology(i % network.horizon() + 1,
                                         {receiving});
                   }
                 });
        }));
  }
  return report;
}

// ------------------------------------------------------- comparison modes

/// One full period of the rotating star's topology sequence, built once.
/// RotatingStarAdversary rebuilds makeStar(n, (round-1) % n) from scratch
/// every round of every trial; a PeriodicAdversary over this cycle yields
/// value-identical graphs while paying construction once.  Sharing the
/// GraphPtrs across trial threads is safe: a Graph never changes after
/// construction.
std::vector<net::GraphPtr> rotatingStarCycle(sim::NodeId n) {
  std::vector<net::GraphPtr> stars;
  stars.reserve(static_cast<std::size_t>(n));
  for (sim::NodeId center = 0; center < n; ++center) {
    stars.push_back(net::makeStar(n, center));
  }
  return stars;
}

/// RunResult → the four metrics every comparison aggregates.
std::map<std::string, double> trialMetrics(const sim::RunResult& r) {
  return {
      {"rounds", static_cast<double>(r.rounds_executed)},
      {"bits", static_cast<double>(r.bits_sent)},
      {"messages", static_cast<double>(r.messages_sent)},
      {"max_node_bits", static_cast<double>(r.max_bits_per_node)},
  };
}

/// Exact summary equality between the two legs — same seeds, same engine
/// semantics, same trial-order merge.  A mismatch means the configuration
/// under test changed behaviour, which the whole PR forbids.
void requireEqualSummaries(const std::map<std::string, util::Summary>& a,
                           const std::map<std::string, util::Summary>& b,
                           const std::string& mode) {
  for (const auto& [name, summary] : a) {
    const util::Summary& other = b.at(name);
    if (other.count() != summary.count() || other.mean() != summary.mean() ||
        other.min() != summary.min() || other.max() != summary.max()) {
      std::cerr << "FATAL: " << mode << " leg mismatch on metric " << name
                << " (mean " << other.mean() << " vs " << summary.mean()
                << ")\n";
      std::exit(1);
    }
  }
}

/// Repetitions per leg; each comparison reports the fastest rep so a
/// background-noise spike on one leg does not masquerade as a speedup
/// (or slowdown) of the other.  Legs are interleaved per rep to
/// decorrelate slow machine-wide drift.
constexpr int kReps = 3;

/// Seconds of the fastest rep of the baseline leg [0] and the new leg [1].
using LegSeconds = std::array<double, 2>;

void keepFastest(LegSeconds& best, int rep, int leg, double secs) {
  if (rep == 0 || secs < best[leg]) {
    best[leg] = secs;
  }
}

LegSeconds compareBatchVsSequential(sim::NodeId n, int trials,
                                    sim::Round rounds,
                                    std::uint64_t base_seed) {
  LegSeconds best{};
  std::map<std::string, util::Summary> sequential;
  std::map<std::string, util::Summary> batch_metrics;
  for (int rep = 0; rep < kReps; ++rep) {
    // Baseline: the pre-BatchRunner shape — one thread, a fresh Engine per
    // trial, per-round topology construction, and a fresh metric map per
    // trial, merged map-by-map.
    std::map<std::string, util::Summary> seq;
    keepFastest(best, rep, 0, timed([&] {
      for (int i = 0; i < trials; ++i) {
        const sim::RunResult r = runWorkloadTrial(
            n, rounds,
            util::hashCombine(base_seed, static_cast<std::size_t>(i)),
            std::make_unique<sim::RebuildEveryRound>(
                bench::makeAdversary("rotating_star", n, 42)));
        for (const auto& [name, value] : trialMetrics(r)) {
          seq[name].add(value);
        }
      }
    }));

    sim::BatchRunner runner;
    // Topology construction is part of what the batch path amortizes
    // away, but it should not be *timed into* a trials/sec figure that
    // claims to measure the round engine: hoist it.
    const std::vector<net::GraphPtr> stars = rotatingStarCycle(n);
    keepFastest(best, rep, 1, timed([&] {
      batch_metrics =
          runner
              .run(trials, base_seed,
                   [&](std::uint64_t seed, sim::TrialRecorder& rec) {
                     const sim::RunResult r = runWorkloadTrial(
                         n, rounds, seed,
                         std::make_unique<adv::PeriodicAdversary>(stars));
                     for (const auto& [name, value] : trialMetrics(r)) {
                       rec.set(name, value);
                     }
                   })
              .metrics;
    }));
    sequential = std::move(seq);
  }
  requireEqualSummaries(sequential, batch_metrics, "batch-vs-sequential");
  return best;
}

/// Shared shape for the two single-toggle comparisons: run `trials` via
/// BatchRunner twice with `body`, once per configuration, and require
/// exact agreement.  `body(seed, leg)` runs one trial for leg 0 (baseline)
/// or 1 (new path).
template <typename Body>
LegSeconds compareToggle(int trials, std::uint64_t base_seed,
                         const std::string& mode, Body body,
                         sim::BatchOptions options = {}) {
  std::map<std::string, util::Summary> legs[2];
  LegSeconds best{};
  for (int rep = 0; rep < kReps; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      sim::BatchRunner runner(options);
      keepFastest(best, rep, leg, timed([&] {
        legs[leg] =
            runner
                .run(trials, base_seed,
                     [&](std::uint64_t seed, sim::TrialRecorder& rec) {
                       for (const auto& [name, value] :
                            trialMetrics(body(seed, leg))) {
                         rec.set(name, value);
                       }
                     })
                .metrics;
      }));
    }
  }
  requireEqualSummaries(legs[0], legs[1], mode);
  return best;
}

/// delta-vs-rebuild: identical delivery on both legs, only the topology
/// pipeline differs — EdgeChurn rebuilding its spanning tree from scratch
/// every round vs. patching the previous Graph with applyDelta.  Churn 4
/// edges/round so the delta is genuinely sparse.
LegSeconds compareDeltaVsRebuild(sim::NodeId n, int trials, sim::Round rounds,
                                 std::uint64_t base_seed) {
  return compareToggle(
      trials, base_seed, "delta-vs-rebuild",
      [&](std::uint64_t seed, int leg) {
        std::unique_ptr<sim::Adversary> churn =
            std::make_unique<adv::EdgeChurnAdversary>(n, /*churn_edges=*/4,
                                                      /*seed=*/42);
        if (leg == 0) {
          churn = std::make_unique<sim::RebuildEveryRound>(std::move(churn));
        }
        return runWorkloadTrial(n, rounds, seed, std::move(churn));
      });
}

/// soa-vs-objects: identical adversary handling on both legs (periodic
/// prebuilt stars, deltas), only the state representation differs —
/// per-node Process objects vs the flat column store.  Single-core
/// (threads = 1): the acceptance criterion measures per-engine round
/// throughput, not cross-trial parallelism.
LegSeconds compareSoAVsObjects(sim::NodeId n, int trials, sim::Round rounds,
                               std::uint64_t base_seed) {
  const std::vector<net::GraphPtr> stars = rotatingStarCycle(n);
  sim::BatchOptions options;
  options.threads = 1;
  return compareToggle(
      trials, base_seed, "soa-vs-objects",
      [&](std::uint64_t seed, int leg) {
        return runWorkloadTrial(n, rounds, seed,
                                std::make_unique<adv::PeriodicAdversary>(stars),
                                /*objects=*/leg == 0);
      },
      options);
}

/// One comparison mode over its grid: a JSON row and a stdout line per
/// size.
ModeReport runCompare(const std::string& mode, bool quick) {
  struct Config {
    sim::NodeId n;
    int trials;
    sim::Round rounds;
  };
  std::vector<Config> configs =
      quick ? std::vector<Config>{{256, 64, 96}}
            : std::vector<Config>{{256, 256, 128}, {1024, 96, 128}};
  // The SoA acceptance criterion is stated at n = 4096 (data layout only
  // starts to dominate once the working set leaves L2), so that mode's
  // full run adds a large-N point on top of the shared grid.
  if (mode == "soa-vs-objects" && !quick) {
    configs.push_back({4096, 24, 96});
  }
  ModeReport report{mode, "flood/rotating_star", {}};
  std::string labels[2] = {"objects", "soa"};
  if (mode == "batch-vs-sequential") {
    labels[0] = "sequential";
    labels[1] = "batch";
  } else if (mode == "delta-vs-rebuild") {
    report.workload = "flood/edge_churn4";
    labels[0] = "rebuild";
    labels[1] = "delta";
  }
  for (const Config& c : configs) {
    // Warm-up trial outside the timed regions (first allocations, code
    // paging) so both paths are measured steady-state.
    runWorkloadTrial(c.n, c.rounds, 0xBEEF,
                     bench::makeAdversary("rotating_star", c.n, 42));
    const LegSeconds secs =
        mode == "batch-vs-sequential"
            ? compareBatchVsSequential(c.n, c.trials, c.rounds, 0x51A7)
        : mode == "delta-vs-rebuild"
            ? compareDeltaVsRebuild(c.n, c.trials, c.rounds, 0x51A7)
            : compareSoAVsObjects(c.n, c.trials, c.rounds, 0x51A7);
    const double rate[2] = {c.trials / secs[0], c.trials / secs[1]};
    std::ostringstream row;
    row << "{\"n\": " << c.n << ", \"trials\": " << c.trials
        << ", \"rounds\": " << c.rounds << ", \"" << labels[0]
        << "_trials_per_sec\": " << rate[0] << ", \"" << labels[1]
        << "_trials_per_sec\": " << rate[1]
        << ", \"speedup\": " << secs[0] / secs[1] << "}";
    report.rows.push_back(row.str());
    std::cout << mode << " n=" << c.n << " trials=" << c.trials
              << " rounds=" << c.rounds << ": baseline " << rate[0]
              << " trials/s, new " << rate[1] << " trials/s, speedup "
              << secs[0] / secs[1] << "x\n";
  }
  return report;
}

// --------------------------------------------------------------- scale mode

/// scale: per size, `reps` timed runs of `rounds` steps of a fresh engine
/// (built outside the timing) after one untimed run that reads the
/// soa//workers gauge.  The digest folds the message and bit totals and
/// every node's final state; every run of a size must reproduce it.
ModeReport runScale(bool quick) {
  const sim::Round rounds = quick ? 16 : 128;
  const int reps = quick ? 3 : 7;
  const std::vector<sim::NodeId> sizes =
      quick ? std::vector<sim::NodeId>{8192, 32768}
            : std::vector<sim::NodeId>{8192, 32768, 262144, 1000000};
  ModeReport report{"scale", "flood/edge_churn16", {}};
  for (const sim::NodeId n : sizes) {
    campaign::ShardConfig shard;
    shard.protocol = "flood";
    shard.adversary = "edge_churn";
    shard.churn = 16;
    shard.n = n;
    const std::uint64_t seed = 0x5CA1E;
    double workers = 0;  // the engine's soa//workers gauge
    std::uint64_t digest = 0;
    const Spread ns = overReps(reps, [&](int rep) {
      const std::unique_ptr<sim::ProcessFactory> factory =
          campaign::makeProtocolFactory(shard, seed);
      obs::MetricsSink sink;
      sim::EngineConfig config;
      config.max_rounds = rounds;
      config.metrics = rep < 0 ? &sink : nullptr;
      sim::Engine engine(*factory, campaign::makeAdversary(shard, seed),
                         config, seed);
      const double secs = timed([&] {
        for (sim::Round r = 0; r < rounds; ++r) {
          engine.step();
        }
      });
      std::uint64_t run = util::hashCombine(engine.result().messages_sent,
                                            engine.result().bits_sent);
      for (sim::NodeId v = 0; v < n; ++v) {
        run = util::hashCombine(run, engine.stateDigest(v));
      }
      if (rep < 0) {
        engine.finalizeMetrics();
        workers = sink.registry.gauge("soa//workers")->value;
        digest = run;
      }
      DYNET_CHECK(run == digest)
          << "scale n=" << n << ": repetition " << rep << " digest differs";
      return secs * 1e9 /
             (static_cast<double>(n) * static_cast<double>(rounds));
    });
    std::ostringstream row;
    row << "{\"n\": " << n << ", \"rounds\": " << rounds
        << ", \"reps\": " << reps << ", \"workers\": " << workers
        << ", \"ns_per_node_round_q1\": " << ns.q1
        << ", \"ns_per_node_round_median\": " << ns.median
        << ", \"ns_per_node_round_q3\": " << ns.q3 << ", \"digest\": \""
        << campaign::hashHex(digest) << "\"}";
    report.rows.push_back(row.str());
    std::cout << "scale n=" << n << " rounds=" << rounds
              << " workers=" << workers << ": " << ns.median
              << " ns/node-round [" << ns.q1 << ", " << ns.q3 << "] over "
              << reps << " reps, digest " << campaign::hashHex(digest)
              << "\n";
  }
  return report;
}

int runMain(int argc, char** argv) {
  const std::vector<std::string> all_modes = {
      "throughput", "batch-vs-sequential", "delta-vs-rebuild",
      "soa-vs-objects", "scale"};
  bool quick = false;
  std::vector<std::string> modes;
  std::string json_path = "BENCH_sim_perf.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_path = arg.substr(std::string_view("--json-out=").size());
    } else {
      DYNET_CHECK(std::find(all_modes.begin(), all_modes.end(), arg) !=
                  all_modes.end())
          << "unknown argument '" << arg
          << "' (modes: throughput, batch-vs-sequential, delta-vs-rebuild, "
             "soa-vs-objects, scale)";
      modes.push_back(arg);
    }
  }
  if (modes.empty()) {
    modes.assign(all_modes.begin(), all_modes.end() - 1);  // all but scale
  }

  std::vector<ModeReport> reports;
  for (const std::string& mode : modes) {
    reports.push_back(mode == "throughput" ? runThroughput(quick)
                      : mode == "scale"    ? runScale(quick)
                                           : runCompare(mode, quick));
  }

  std::ofstream json(json_path);
  DYNET_CHECK(json.good()) << "cannot open " << json_path;
  json << "{\n  \"bench\": \"sim_perf\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"threads\": " << util::ThreadPool::shared().threadCount()
       << ",\n  \"modes\": [\n";
  for (std::size_t m = 0; m < reports.size(); ++m) {
    const ModeReport& report = reports[m];
    json << "    {\"mode\": \"" << report.mode << "\", ";
    if (!report.workload.empty()) {
      json << "\"workload\": \"" << report.workload << "\", ";
    }
    json << "\"results\": [\n";
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
      json << "      " << report.rows[i]
           << (i + 1 < report.rows.size() ? "," : "") << "\n";
    }
    json << "    ]}" << (m + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::cout << "results written to " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::runMain);
}
