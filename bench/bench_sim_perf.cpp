// E9 — infrastructure throughput (google-benchmark): round-engine
// node-rounds/sec across adversaries, dynamic-diameter solves, and the
// Γ/Λ adversary edge generation that dominates reduction runs.
//
// A second, non-google-benchmark family of modes compares engine
// configurations pairwise (invoked as `bench_sim_perf [--quick] MODE...`,
// any subset; results for all requested modes land in one
// BENCH_sim_perf.json, override with --json-out=PATH):
//
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
//                        objects (sim::createProcesses) vs the flat column
//                        store (sim/soa.h).
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
// Every comparison mode verifies the two legs agree metric for metric
// (exact summary equality) before reporting — a mismatch means the new hot
// path changed behaviour, and the bench exits 1.  The scale mode requires
// every repetition of a size to end in the same digest.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/static_adversaries.h"
#include "bench_common.h"
#include "campaign/spec.h"
#include "cc/disjointness_cp.h"
#include "lowerbound/composition.h"
#include "protocols/max_flood.h"
#include "protocols/oracles.h"
#include "sim/batch.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dynet {
namespace {

void BM_EngineMaxFlood(benchmark::State& state) {
  const auto n = static_cast<sim::NodeId>(state.range(0));
  std::vector<std::uint64_t> values(static_cast<std::size_t>(n), 1);
  std::int64_t node_rounds = 0;
  for (auto _ : state) {
    proto::MaxFloodFactory factory(values, 8, 1 << 20);
    auto engine = bench::makeEngine(
        factory, bench::makeAdversary("rotating_star", n, 42), 256, 7);
    for (int r = 0; r < 256; ++r) {
      engine.step();
    }
    node_rounds += 256 * n;
    benchmark::DoNotOptimize(engine.result().bits_sent);
  }
  state.counters["node_rounds/s"] = benchmark::Counter(
      static_cast<double>(node_rounds), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineMaxFlood)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EngineRandomTree(benchmark::State& state) {
  const auto n = static_cast<sim::NodeId>(state.range(0));
  std::int64_t node_rounds = 0;
  for (auto _ : state) {
    proto::RandomBabblerFactory factory(24);
    auto engine = bench::makeEngine(
        factory, bench::makeAdversary("random_tree", n, 42), 128, 7);
    for (int r = 0; r < 128; ++r) {
      engine.step();
    }
    node_rounds += 128 * n;
    benchmark::DoNotOptimize(engine.result().bits_sent);
  }
  state.counters["node_rounds/s"] = benchmark::Counter(
      static_cast<double>(node_rounds), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineRandomTree)->Arg(256)->Arg(1024);

void BM_DynamicDiameter(benchmark::State& state) {
  const auto n = static_cast<sim::NodeId>(state.range(0));
  auto adversary = bench::makeAdversary("shuffle_path", n, 9);
  net::TopologySeq topologies;
  std::vector<sim::Action> receiving(static_cast<std::size_t>(n));
  for (sim::Round r = 1; r <= 3 * n; ++r) {
    topologies.push_back(adversary->topology(r, {receiving}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dynamicDiameter(topologies, 8));
  }
}
BENCHMARK(BM_DynamicDiameter)->Arg(256)->Arg(1024);

void BM_GammaLambdaTopology(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  util::Rng rng(4);
  const cc::Instance inst = cc::randomInstance(2, q, rng, 0);
  const lb::CFloodNetwork network(inst);
  auto adversary = network.referenceAdversary();
  std::vector<sim::Action> receiving(
      static_cast<std::size_t>(network.numNodes()));
  sim::Round r = 1;
  for (auto _ : state) {
    auto g = adversary->topology(r % network.horizon() + 1, {receiving});
    benchmark::DoNotOptimize(g->numEdges());
    ++r;
  }
  state.counters["nodes"] = network.numNodes();
}
BENCHMARK(BM_GammaLambdaTopology)->Arg(61)->Arg(241);

// ------------------------------------------------- batch-vs-sequential mode

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The workload both runners execute: MaxFlood on a rotating star (the
/// Θ(N)-causal-diameter adversary, so runs go the full horizon).  The
/// caller supplies the adversary so the two runners can differ in *how*
/// the topologies are produced while the topology values stay identical,
/// and `objects` pins the per-node Process path so the legs can differ in
/// *how* rounds execute while the results stay identical.
sim::RunResult runWorkloadTrial(sim::NodeId n, sim::Round rounds,
                                std::uint64_t seed,
                                std::unique_ptr<sim::Adversary> adversary,
                                bool objects = false) {
  std::vector<std::uint64_t> values(static_cast<std::size_t>(n), 1);
  proto::MaxFloodFactory factory(values, 8, 1 << 20);
  if (objects) {
    sim::EngineConfig config;
    config.max_rounds = rounds;
    return sim::Engine(sim::createProcesses(factory, n), std::move(adversary),
                       config, seed)
        .run();
  }
  return bench::makeEngine(factory, std::move(adversary), rounds, seed).run();
}

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

struct CompareResult {
  sim::NodeId n = 0;
  int trials = 0;
  sim::Round rounds = 0;
  double baseline_trials_per_sec = 0;
  double new_trials_per_sec = 0;
  double speedup = 0;
};

/// One size of the scale mode.
struct ScaleResult {
  sim::NodeId n = 0;
  sim::Round rounds = 0;
  int reps = 0;
  double workers = 0;  // the engine's soa//workers gauge
  // ns per node-round over the repetitions.
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  std::uint64_t digest = 0;
};

struct ModeReport {
  std::string mode;
  std::string workload;
  std::string baseline_label;  // JSON key for the baseline leg's rate
  std::string new_label;       // JSON key for the new leg's rate
  std::vector<CompareResult> results;
  std::vector<ScaleResult> scale;  // the scale mode's rows instead
};

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

CompareResult compareBatchVsSequential(sim::NodeId n, int trials,
                                       sim::Round rounds,
                                       std::uint64_t base_seed) {
  double seq_secs = 0;
  double batch_secs = 0;
  std::map<std::string, util::Summary> sequential;
  std::map<std::string, util::Summary> batch_metrics;
  for (int rep = 0; rep < kReps; ++rep) {
    // Baseline: the pre-BatchRunner shape — one thread, a fresh Engine per
    // trial, per-round topology construction, and a fresh metric map per
    // trial, merged map-by-map.
    const double seq_start = nowSeconds();
    std::map<std::string, util::Summary> seq;
    for (int i = 0; i < trials; ++i) {
      const sim::RunResult r = runWorkloadTrial(
          n, rounds, util::hashCombine(base_seed, static_cast<std::size_t>(i)),
          std::make_unique<sim::RebuildEveryRound>(
              bench::makeAdversary("rotating_star", n, 42)));
      for (const auto& [name, value] : trialMetrics(r)) {
        seq[name].add(value);
      }
    }
    const double seq_rep = nowSeconds() - seq_start;

    sim::BatchRunner runner;
    // Topology construction is part of what the batch path amortizes
    // away, but it should not be *timed into* a trials/sec figure that
    // claims to measure the round engine: hoist it.
    const std::vector<net::GraphPtr> stars = rotatingStarCycle(n);
    const double batch_start = nowSeconds();
    const sim::TrialSummary batch = runner.run(
        trials, base_seed,
        [&](std::uint64_t seed, sim::TrialRecorder& rec) {
          const sim::RunResult r = runWorkloadTrial(
              n, rounds, seed, std::make_unique<adv::PeriodicAdversary>(stars));
          for (const auto& [name, value] : trialMetrics(r)) {
            rec.set(name, value);
          }
        });
    const double batch_rep = nowSeconds() - batch_start;

    if (rep == 0 || seq_rep < seq_secs) {
      seq_secs = seq_rep;
    }
    if (rep == 0 || batch_rep < batch_secs) {
      batch_secs = batch_rep;
    }
    sequential = std::move(seq);
    batch_metrics = batch.metrics;
  }

  requireEqualSummaries(sequential, batch_metrics, "batch-vs-sequential");

  CompareResult out;
  out.n = n;
  out.trials = trials;
  out.rounds = rounds;
  out.baseline_trials_per_sec = trials / seq_secs;
  out.new_trials_per_sec = trials / batch_secs;
  out.speedup = seq_secs / batch_secs;
  return out;
}

/// Shared shape for the two single-toggle comparisons: run `trials` via
/// BatchRunner twice with `body`, once per configuration, and require
/// exact agreement.  `body(seed, leg)` runs one trial for leg 0 (baseline)
/// or 1 (new path).
template <typename Body>
CompareResult compareToggle(sim::NodeId n, int trials, sim::Round rounds,
                            std::uint64_t base_seed, const std::string& mode,
                            Body body, sim::BatchOptions options = {}) {
  std::map<std::string, util::Summary> legs[2];
  double secs[2] = {0, 0};
  for (int rep = 0; rep < kReps; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      sim::BatchRunner runner(options);
      const double start = nowSeconds();
      const sim::TrialSummary summary = runner.run(
          trials, base_seed, [&](std::uint64_t seed, sim::TrialRecorder& rec) {
            for (const auto& [name, value] : trialMetrics(body(seed, leg))) {
              rec.set(name, value);
            }
          });
      const double rep_secs = nowSeconds() - start;
      if (rep == 0 || rep_secs < secs[leg]) {
        secs[leg] = rep_secs;
      }
      legs[leg] = summary.metrics;
    }
  }

  requireEqualSummaries(legs[0], legs[1], mode);

  CompareResult out;
  out.n = n;
  out.trials = trials;
  out.rounds = rounds;
  out.baseline_trials_per_sec = trials / secs[0];
  out.new_trials_per_sec = trials / secs[1];
  out.speedup = secs[0] / secs[1];
  return out;
}

/// delta-vs-rebuild: identical delivery on both legs, only the topology
/// pipeline differs — EdgeChurn rebuilding its spanning tree from scratch
/// every round vs. patching the previous Graph with applyDelta.  Churn 4
/// edges/round so the delta is genuinely sparse.
CompareResult compareDeltaVsRebuild(sim::NodeId n, int trials,
                                    sim::Round rounds,
                                    std::uint64_t base_seed) {
  return compareToggle(
      n, trials, rounds, base_seed, "delta-vs-rebuild",
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
CompareResult compareSoAVsObjects(sim::NodeId n, int trials, sim::Round rounds,
                                  std::uint64_t base_seed,
                                  const std::vector<net::GraphPtr>& stars) {
  sim::BatchOptions options;
  options.threads = 1;
  return compareToggle(
      n, trials, rounds, base_seed, "soa-vs-objects",
      [&](std::uint64_t seed, int leg) {
        return runWorkloadTrial(n, rounds, seed,
                                std::make_unique<adv::PeriodicAdversary>(stars),
                                /*objects=*/leg == 0);
      },
      options);
}

/// scale: `reps` timed runs of `rounds` steps of a fresh engine (built
/// outside the timing) after one untimed run that reads the soa//workers
/// gauge.  The digest folds the message and bit totals and every node's
/// final state; every run of a size must reproduce it.
ScaleResult runScale(sim::NodeId n, sim::Round rounds, int reps) {
  campaign::ShardConfig shard;
  shard.protocol = "flood";
  shard.adversary = "edge_churn";
  shard.churn = 16;
  shard.n = n;
  const std::uint64_t seed = 0x5CA1E;
  ScaleResult out;
  out.n = n;
  out.rounds = rounds;
  out.reps = reps;
  util::Summary ns;
  for (int rep = -1; rep < reps; ++rep) {
    const std::unique_ptr<sim::ProcessFactory> factory =
        campaign::makeProtocolFactory(shard, seed);
    obs::MetricsSink sink;
    sim::EngineConfig config;
    config.max_rounds = rounds;
    config.metrics = rep < 0 ? &sink : nullptr;
    sim::Engine engine(*factory, campaign::makeAdversary(shard, seed), config,
                       seed);
    const double start = nowSeconds();
    for (sim::Round r = 0; r < rounds; ++r) {
      engine.step();
    }
    const double secs = nowSeconds() - start;
    std::uint64_t digest = util::hashCombine(engine.result().messages_sent,
                                             engine.result().bits_sent);
    for (sim::NodeId v = 0; v < n; ++v) {
      digest = util::hashCombine(digest, engine.stateDigest(v));
    }
    if (rep < 0) {
      engine.finalizeMetrics();
      out.workers = sink.registry.gauge("soa//workers")->value;
      out.digest = digest;
      continue;
    }
    DYNET_CHECK(digest == out.digest)
        << "scale n=" << n << ": repetition " << rep << " digest differs";
    ns.add(secs * 1e9 /
           (static_cast<double>(n) * static_cast<double>(rounds)));
  }
  out.q1 = ns.percentile(0.25);
  out.median = ns.median();
  out.q3 = ns.percentile(0.75);
  return out;
}

int runCompareModes(const std::vector<std::string>& modes, bool quick,
                    const std::string& json_path) {
  struct Config {
    sim::NodeId n;
    int trials;
    sim::Round rounds;
  };
  const std::vector<Config> base_configs =
      quick ? std::vector<Config>{{256, 64, 96}}
            : std::vector<Config>{{256, 256, 128}, {1024, 96, 128}};
  // The SoA acceptance criterion is stated at n = 4096 (data layout only
  // starts to dominate once the working set leaves L2), so that mode's
  // full run adds a large-N point on top of the shared grid.
  std::vector<Config> soa_configs = base_configs;
  if (!quick) {
    soa_configs.push_back({4096, 24, 96});
  }

  std::vector<ModeReport> reports;
  for (const std::string& mode : modes) {
    ModeReport report;
    report.mode = mode;
    if (mode == "scale") {
      report.workload = "flood/edge_churn16";
      const std::vector<sim::NodeId> sizes =
          quick ? std::vector<sim::NodeId>{8192, 32768}
                : std::vector<sim::NodeId>{8192, 32768, 262144, 1000000};
      for (const sim::NodeId n : sizes) {
        report.scale.push_back(runScale(n, quick ? 16 : 128, quick ? 3 : 7));
      }
      reports.push_back(std::move(report));
      continue;
    }
    const std::vector<Config>& configs =
        mode == "soa-vs-objects" ? soa_configs : base_configs;
    for (const Config& c : configs) {
      // Warm-up trial outside the timed regions (first allocations, code
      // paging) so both paths are measured steady-state.
      runWorkloadTrial(c.n, c.rounds, 0xBEEF,
                       bench::makeAdversary("rotating_star", c.n, 42));
      if (mode == "batch-vs-sequential") {
        report.workload = "max_flood/rotating_star";
        report.baseline_label = "sequential_trials_per_sec";
        report.new_label = "batch_trials_per_sec";
        report.results.push_back(
            compareBatchVsSequential(c.n, c.trials, c.rounds, 0x51A7));
      } else if (mode == "delta-vs-rebuild") {
        report.workload = "max_flood/edge_churn4";
        report.baseline_label = "rebuild_trials_per_sec";
        report.new_label = "delta_trials_per_sec";
        report.results.push_back(
            compareDeltaVsRebuild(c.n, c.trials, c.rounds, 0x51A7));
      } else if (mode == "soa-vs-objects") {
        report.workload = "max_flood/rotating_star";
        report.baseline_label = "objects_trials_per_sec";
        report.new_label = "soa_trials_per_sec";
        const std::vector<net::GraphPtr> stars = rotatingStarCycle(c.n);
        report.results.push_back(
            compareSoAVsObjects(c.n, c.trials, c.rounds, 0x51A7, stars));
      } else {
        std::cerr << "unknown mode " << mode << "\n";
        return 2;
      }
    }
    reports.push_back(std::move(report));
  }

  std::ofstream json(json_path);
  DYNET_CHECK(json.good()) << "cannot open " << json_path;
  json << "{\n  \"bench\": \"sim_perf\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"threads\": " << util::ThreadPool::shared().threadCount()
       << ",\n  \"modes\": [\n";
  for (std::size_t m = 0; m < reports.size(); ++m) {
    const ModeReport& report = reports[m];
    json << "    {\"mode\": \"" << report.mode << "\", \"workload\": \""
         << report.workload << "\", \"results\": [\n";
    for (std::size_t i = 0; i < report.scale.size(); ++i) {
      const ScaleResult& r = report.scale[i];
      json << "      {\"n\": " << r.n << ", \"rounds\": " << r.rounds
           << ", \"reps\": " << r.reps << ", \"workers\": " << r.workers
           << ", \"ns_per_node_round_q1\": " << r.q1
           << ", \"ns_per_node_round_median\": " << r.median
           << ", \"ns_per_node_round_q3\": " << r.q3 << ", \"digest\": \""
           << campaign::hashHex(r.digest) << "\"}"
           << (i + 1 < report.scale.size() ? "," : "") << "\n";
    }
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const CompareResult& r = report.results[i];
      json << "      {\"n\": " << r.n << ", \"trials\": " << r.trials
           << ", \"rounds\": " << r.rounds << ", \"" << report.baseline_label
           << "\": " << r.baseline_trials_per_sec << ", \"" << report.new_label
           << "\": " << r.new_trials_per_sec << ", \"speedup\": " << r.speedup
           << "}" << (i + 1 < report.results.size() ? "," : "") << "\n";
    }
    json << "    ]}" << (m + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();

  for (const ModeReport& report : reports) {
    for (const ScaleResult& r : report.scale) {
      std::cout << report.mode << " n=" << r.n << " rounds=" << r.rounds
                << " workers=" << r.workers << ": " << r.median
                << " ns/node-round [" << r.q1 << ", " << r.q3 << "] over "
                << r.reps << " reps, digest " << campaign::hashHex(r.digest)
                << "\n";
    }
    for (const CompareResult& r : report.results) {
      std::cout << report.mode << " n=" << r.n << " trials=" << r.trials
                << " rounds=" << r.rounds << ": baseline "
                << r.baseline_trials_per_sec << " trials/s, new "
                << r.new_trials_per_sec << " trials/s, speedup " << r.speedup
                << "x\n";
    }
  }
  std::cout << "results written to " << json_path << "\n";
  return 0;
}

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags
// it does not know, but scripts/check.sh runs every bench with --quick.
// Translate --quick into a short --benchmark_min_time before Initialize.
// Positional mode arguments (`batch-vs-sequential`, `delta-vs-rebuild`,
// `soa-vs-objects`, `scale`, any combination, in order)
// select the comparison modes instead of the google-benchmark suites.
int runMain(int argc, char** argv) {
  std::vector<char*> args;
  bool quick = false;
  std::vector<std::string> modes;
  std::string json_path = "BENCH_sim_perf.json";
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "batch-vs-sequential" || arg == "delta-vs-rebuild" ||
               arg == "soa-vs-objects" || arg == "scale") {
      modes.emplace_back(arg);
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_path = std::string(arg.substr(std::string_view("--json-out=").size()));
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!modes.empty()) {
    return dynet::runCompareModes(modes, quick, json_path);
  }
  static char min_time[] = "--benchmark_min_time=0.02";
  if (quick) {
    args.push_back(min_time);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::bench::guardedMain(argc, argv, dynet::runMain);
}
