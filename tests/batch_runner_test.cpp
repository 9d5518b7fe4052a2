// Pins the batch-trial refactor's behaviour guarantees:
//   * sim::BatchRunner (per-trial TrialRecorder metrics, thread-pool
//     fan-out) reproduces a sequential per-trial-Engine loop
//     byte for byte on fixed seeds — every RunResult field, per-node state
//     digests, serialized traces, and (with a MetricsSink) metrics.json —
//     for clean runs, fault-injected runs, and sink-attached runs.
//   * TrialRecorder aggregation equals a hand-written sequential loop
//     (seed hashCombine(base, i), one util::Summary per metric filled in
//     trial order), including metrics only present in some trials and
//     metrics first registered mid-run; the raw TrialSamples behind it are
//     in trial order and identical across thread counts.
//   * A runner reused across runs, or after a run whose trial threw,
//     leaks nothing from one run into the next.
//   * util::parseThreadCount (the DYNET_THREADS override) parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "obs/sink.h"
#include "protocols/flood.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dynet::sim {
namespace {

struct TrialArtifacts {
  RunResult result;
  std::vector<std::uint64_t> digests;  // per-node stateDigest
  std::string trace;                   // serialized writeTrace output
  std::string metrics_json;            // empty when no sink attached

  friend bool operator==(const TrialArtifacts& x, const TrialArtifacts& y) {
    return x.result.rounds_executed == y.result.rounds_executed &&
           x.result.all_done == y.result.all_done &&
           x.result.all_done_round == y.result.all_done_round &&
           x.result.done_round == y.result.done_round &&
           x.result.messages_sent == y.result.messages_sent &&
           x.result.bits_sent == y.result.bits_sent &&
           x.result.bits_per_node == y.result.bits_per_node &&
           x.result.max_bits_per_node == y.result.max_bits_per_node &&
           x.result.bits_per_round == y.result.bits_per_round &&
           x.result.crashes == y.result.crashes &&
           x.result.restarts == y.result.restarts &&
           x.result.messages_dropped == y.result.messages_dropped &&
           x.result.messages_corrupted == y.result.messages_corrupted &&
           x.digests == y.digests && x.trace == y.trace &&
           x.metrics_json == y.metrics_json;
  }
};

/// One reference trial: randomized flood over a G(n,p) churn adversary,
/// full recording so traces can be compared, optional fault plan and
/// metrics sink.
TrialArtifacts runFloodTrial(NodeId n, std::uint64_t seed,
                             const faults::FaultConfig* fc, bool with_sink) {
  proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kRandomized,
                              /*halt_round=*/60);
  std::vector<std::unique_ptr<Process>> ps;
  for (NodeId v = 0; v < n; ++v) {
    ps.push_back(factory.create(v, n));
  }
  obs::MetricsSink sink;
  EngineConfig config;
  config.max_rounds = 80;
  config.record_topologies = true;
  config.record_actions = true;
  config.stop_when_all_done = false;
  config.metrics = with_sink ? &sink : nullptr;
  Engine engine(std::move(ps),
                std::make_unique<adv::RandomGraphAdversary>(n, 0.5, /*seed=*/9),
                config, seed);
  if (fc != nullptr) {
    engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
        faults::FaultPlan(n, *fc, seed * 0x9E3779B97F4A7C15ULL + 0xFA),
        &factory));
  }
  TrialArtifacts artifacts;
  artifacts.result = engine.run();
  for (NodeId v = 0; v < n; ++v) {
    artifacts.digests.push_back(engine.process(v).stateDigest());
  }
  std::ostringstream trace;
  writeTrace(trace, engine.trace());
  artifacts.trace = trace.str();
  if (with_sink) {
    std::ostringstream json;
    sink.registry.writeJson(json);
    artifacts.metrics_json = json.str();
  }
  return artifacts;
}

/// Runs `trials` seeds both ways and expects byte-identical artifacts.
void expectBatchMatchesSequential(NodeId n, int trials,
                                  std::uint64_t base_seed,
                                  const faults::FaultConfig* fc,
                                  bool with_sink, BatchOptions options) {
  std::vector<TrialArtifacts> sequential;
  for (int i = 0; i < trials; ++i) {
    sequential.push_back(runFloodTrial(
        n, util::hashCombine(base_seed, static_cast<std::size_t>(i)), fc,
        with_sink));
  }

  std::map<std::uint64_t, std::size_t> seed_to_trial;
  for (int i = 0; i < trials; ++i) {
    seed_to_trial[util::hashCombine(base_seed, static_cast<std::size_t>(i))] =
        static_cast<std::size_t>(i);
  }
  std::vector<TrialArtifacts> batch(static_cast<std::size_t>(trials));
  std::mutex mu;
  BatchRunner runner(options);
  const TrialSummary summary = runner.run(
      trials, base_seed,
      [&](std::uint64_t seed, TrialRecorder& rec) {
        TrialArtifacts artifacts = runFloodTrial(n, seed, fc, with_sink);
        rec.set("rounds",
                static_cast<double>(artifacts.result.rounds_executed));
        std::lock_guard<std::mutex> lock(mu);
        batch[seed_to_trial.at(seed)] = std::move(artifacts);
      });

  ASSERT_EQ(summary.metrics.at("rounds").count(),
            static_cast<std::size_t>(trials));
  for (int i = 0; i < trials; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_TRUE(sequential[idx] == batch[idx]) << "trial " << i << " differs";
  }
}

TEST(BatchRunner, ByteIdenticalToSequentialCleanRun) {
  expectBatchMatchesSequential(16, 8, 0xB47C, nullptr, /*with_sink=*/false,
                               BatchOptions{});
}

TEST(BatchRunner, ByteIdenticalToSequentialWithFaultInjector) {
  faults::FaultConfig fc;
  fc.drop_prob = 0.2;
  fc.corrupt_prob = 0.1;
  fc.deliver_corrupted = false;  // FloodProcess rejects mangled tokens loudly
  fc.crash_fraction = 0.25;
  fc.crash_window = 20;
  fc.restart = true;
  fc.restart_downtime = 16;
  expectBatchMatchesSequential(16, 8, 0xFA17, &fc, /*with_sink=*/false,
                               BatchOptions{});
}

TEST(BatchRunner, ByteIdenticalMetricsJsonWithSinkAttached) {
  // The registry is not thread-safe, so sink-attached trials run with
  // threads=1 (inline on the calling thread) — the supported pattern for
  // instrumented batches.
  faults::FaultConfig fc;
  fc.drop_prob = 0.1;
  fc.crash_fraction = 0.2;
  fc.crash_window = 16;
  expectBatchMatchesSequential(16, 4, 0x0B5, &fc, /*with_sink=*/true,
                               BatchOptions{.threads = 1});
  expectBatchMatchesSequential(16, 4, 0x0B5, nullptr, /*with_sink=*/true,
                               BatchOptions{.threads = 1});
}

// ------------------------------------------------- TrialRecorder vs map

/// One trial's metrics as a per-trial map: two in every trial, "sparse"
/// in about a third of them.
std::map<std::string, double> legacyBody(std::uint64_t seed) {
  std::map<std::string, double> metrics{
      {"seedmod", static_cast<double>(seed % 101)},
      {"one", 1.0},
  };
  if (seed % 3 == 0) {
    metrics["sparse"] = static_cast<double>(seed % 7);  // not in every trial
  }
  return metrics;
}

void expectSummariesEqual(const TrialSummary& a, const TrialSummary& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [name, summary] : a.metrics) {
    ASSERT_TRUE(b.metrics.count(name)) << name;
    const util::Summary& other = b.metrics.at(name);
    EXPECT_EQ(summary.count(), other.count()) << name;
    EXPECT_EQ(summary.mean(), other.mean()) << name;
    EXPECT_EQ(summary.stddev(), other.stddev()) << name;
    EXPECT_EQ(summary.min(), other.min()) << name;
    EXPECT_EQ(summary.max(), other.max()) << name;
    EXPECT_EQ(summary.median(), other.median()) << name;
    EXPECT_EQ(summary.p95(), other.p95()) << name;
  }
}

TEST(BatchRunner, TrialRecorderMatchesLegacyMapAggregation) {
  const int trials = 64;
  const std::uint64_t base_seed = 0x5EED;
  // The seeding and merge contract, written out: trial i runs with seed
  // hashCombine(base_seed, i), and each metric's Summary takes the values
  // of the trials that set it, in trial order.
  TrialSummary legacy;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t seed =
        util::hashCombine(base_seed, static_cast<std::uint64_t>(i));
    for (const auto& [name, value] : legacyBody(seed)) {
      legacy.metrics[name].add(value);
    }
  }

  BatchRunner runner;  // default options: trials fan out over the shared pool
  const TrialSummary batch = runner.run(
      trials, base_seed,
      [](std::uint64_t seed, TrialRecorder& rec) {
        // "sparse" is set only by the trials that hit it.
        for (const auto& [name, value] : legacyBody(seed)) {
          rec.set(name, value);
        }
      });
  expectSummariesEqual(legacy, batch);
}

TEST(BatchRunner, RepeatedRunsAreIdentical) {
  // Reusing one runner across runs must leak nothing from one run into
  // the next.
  BatchRunner runner;
  const auto body = [](std::uint64_t seed, TrialRecorder& rec) {
    TrialArtifacts artifacts =
        runFloodTrial(12, seed, nullptr, /*with_sink=*/false);
    rec.set("bits", static_cast<double>(artifacts.result.bits_sent));
    rec.set("rounds", static_cast<double>(artifacts.result.rounds_executed));
  };
  const TrialSummary first = runner.run(6, 0xAB, body);
  const TrialSummary second = runner.run(6, 0xAB, body);
  expectSummariesEqual(first, second);
}

TEST(BatchRunner, ThrowingTrialPropagatesAndRunnerStaysUsable) {
  // A trial that throws makes run() rethrow once the other trials have
  // finished, and leaves nothing behind: the same runner's next run equals
  // a fresh runner's.
  const auto body = [](std::uint64_t seed, TrialRecorder& rec) {
    rec.set("seedmod", static_cast<double>(seed % 101));
    if (seed % 3 == 0) {
      rec.set("sparse", static_cast<double>(seed % 7));
    }
  };
  const std::uint64_t throw_seed = util::hashCombine(0x7E57, 5);
  const auto throwing = [&](std::uint64_t seed, TrialRecorder& rec) {
    body(seed, rec);
    DYNET_CHECK(seed != throw_seed) << "trial 5 throws";
  };
  for (const unsigned threads : {0u, 1u}) {
    BatchRunner runner(BatchOptions{.threads = threads});
    EXPECT_THROW(runner.run(16, 0x7E57, throwing), util::CheckError)
        << "threads=" << threads;
    TrialSamples reused_samples;
    const TrialSummary reused = runner.run(16, 0x7E57, body, &reused_samples);
    TrialSamples fresh_samples;
    const TrialSummary fresh = BatchRunner(BatchOptions{.threads = threads})
                                   .run(16, 0x7E57, body, &fresh_samples);
    expectSummariesEqual(fresh, reused);
    EXPECT_EQ(fresh_samples.metrics, reused_samples.metrics)
        << "threads=" << threads;
    EXPECT_EQ(reused.metrics.at("seedmod").count(), 16u);
  }
  // Trials run on the shared pool or inline; there is no other pool.
  try {
    BatchRunner(BatchOptions{.threads = 3}).run(16, 0x7E57, body);
    ADD_FAILURE() << "threads = 3 was accepted";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("BatchOptions::threads = 3"),
              std::string::npos)
        << e.what();
  }
}

TEST(BatchRunner, LastWriteWinsLikeMapSubscript) {
  BatchRunner runner;
  const TrialSummary summary = runner.run(
      4, 1, [](std::uint64_t, TrialRecorder& rec) {
        rec.set("x", 1.0);
        rec.set("x", 2.0);  // overwrites, same as map[k] = v twice
      });
  EXPECT_EQ(summary.metrics.at("x").count(), 4u);
  EXPECT_EQ(summary.metrics.at("x").mean(), 2.0);
}

TEST(BatchRunner, TrialSamplesInTrialOrderAcrossThreadCounts) {
  // Campaign shards serialize these samples and merged reports redo their
  // percentiles over the union of shards, so the samples carry the
  // summary's contract: trial i's value is the i-th sample of each metric
  // it set, whatever the thread count, and a metric set in only some
  // trials has exactly those trials' samples.
  const int trials = 64;
  const std::uint64_t base_seed = 0x5A3F;
  std::map<std::string, std::vector<double>> expected;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t seed =
        util::hashCombine(base_seed, static_cast<std::uint64_t>(i));
    for (const auto& [name, value] : legacyBody(seed)) {
      expected[name].push_back(value);
    }
  }
  ASSERT_GT(expected.at("sparse").size(), 0u);
  ASSERT_LT(expected.at("sparse").size(), static_cast<std::size_t>(trials));

  const auto body = [](std::uint64_t seed, TrialRecorder& rec) {
    for (const auto& [name, value] : legacyBody(seed)) {
      rec.set(name, value);
    }
  };
  TrialSamples pooled;
  BatchRunner(BatchOptions{.threads = 0}).run(trials, base_seed, body, &pooled);
  TrialSamples inline_samples;
  BatchRunner(BatchOptions{.threads = 1})
      .run(trials, base_seed, body, &inline_samples);
  EXPECT_EQ(pooled.metrics, expected);
  EXPECT_EQ(inline_samples.metrics, pooled.metrics);
}

// ------------------------------------------------- DYNET_THREADS parsing

TEST(ParseThreadCount, AcceptsPositiveIntegers) {
  EXPECT_EQ(util::parseThreadCount("1"), 1u);
  EXPECT_EQ(util::parseThreadCount("4"), 4u);
  EXPECT_EQ(util::parseThreadCount("96"), 96u);
}

TEST(ParseThreadCount, UnsetSelectsDefault) {
  EXPECT_EQ(util::parseThreadCount(nullptr), 0u);
  EXPECT_EQ(util::parseThreadCount(""), 0u);
}

TEST(ParseThreadCount, RejectsGarbageLoudly) {
  // A SET-but-malformed override must fail, not silently select the
  // hardware default (util::parseEnvInt contract).
  EXPECT_THROW(util::parseThreadCount("abc"), util::CheckError);
  EXPECT_THROW(util::parseThreadCount("4x"), util::CheckError);
  EXPECT_THROW(util::parseThreadCount("0"), util::CheckError);
  EXPECT_THROW(util::parseThreadCount("-2"), util::CheckError);
  EXPECT_THROW(util::parseThreadCount("123456789"), util::CheckError);
  EXPECT_THROW(util::parseThreadCount("99999999999999999999"),
               util::CheckError);  // overflow
  try {
    util::parseThreadCount("1O");  // the classic 1-vs-O typo
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("DYNET_THREADS"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dynet::sim
