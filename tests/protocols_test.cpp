// Known-diameter protocol tests: flooding completes within D, CFLOOD
// correctness, max-flood consensus/leader election, counting estimator
// accuracy, majority thresholds.
#include <gtest/gtest.h>

#include <memory>

#include "campaign/shard_exec.h"
#include "net/diameter.h"
#include "protocols/cflood.h"
#include "protocols/consensus_known_d.h"
#include "protocols/counting.h"
#include "protocols/flood.h"
#include "protocols/majority.h"
#include "util/stats.h"
#include "protocols/max_flood.h"
#include "sim/engine.h"
#include "sim/soa.h"
#include "util/check.h"

namespace dynet::proto {
namespace {

using sim::NodeId;
using sim::Round;

std::unique_ptr<sim::Adversary> makeAdversary(const std::string& name, NodeId n,
                                              std::uint64_t seed) {
  campaign::ShardConfig shard;
  shard.adversary = name;
  shard.n = n;
  return campaign::makeAdversary(shard, seed);
}

sim::Engine makeEngine(const sim::ProcessFactory& factory,
                       std::unique_ptr<sim::Adversary> adversary, Round max_rounds,
                       std::uint64_t seed, bool record = false) {
  const NodeId n = adversary->numNodes();
  sim::EngineConfig config;
  config.max_rounds = max_rounds;
  config.record_topologies = record;
  return sim::Engine(sim::createProcesses(factory, n), std::move(adversary),
                     config, seed);
}

// --- Deterministic flooding ---

class FloodSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(FloodSweep, DeterministicFloodCompletesWithinRealizedDiameter) {
  const auto [adv_name, n] = GetParam();
  const std::uint64_t seed = 1234;
  FloodFactory factory(/*source=*/0, /*token=*/7, /*token_bits=*/8,
                       FloodMode::kDeterministic, /*halt_round=*/0);
  auto engine = makeEngine(factory, makeAdversary(adv_name, n, seed), 4 * n,
                           seed, /*record=*/true);
  Round completed = -1;
  for (Round r = 1; r <= 4 * n && completed < 0; ++r) {
    engine.step();
    if (tokenHolderCount(engine) == n) {
      completed = r;
    }
  }
  ASSERT_GT(completed, 0) << adv_name;
  // Token spread = causal reach of the source, so completion is bounded by
  // the source's causal eccentricity in the realized execution.
  const int ecc = net::causalEccentricity(engine.topologies(), 0, 0);
  ASSERT_GT(ecc, 0);
  EXPECT_LE(completed, ecc) << adv_name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, FloodSweep,
    ::testing::Combine(::testing::Values("static_path", "static_star",
                                         "static_ring", "random_tree",
                                         "rotating_star", "shuffle_path",
                                         "interval"),
                       ::testing::Values(8, 33, 100)));

TEST(Flood, RandomizedEventuallyCompletes) {
  const NodeId n = 40;
  FloodFactory factory(0, 3, 4, FloodMode::kRandomized, 0);
  auto engine = makeEngine(factory, makeAdversary("random_tree", n, 5), 4000, 5);
  Round completed = -1;
  for (Round r = 1; r <= 4000 && completed < 0; ++r) {
    engine.step();
    if (tokenHolderCount(engine) == n) {
      completed = r;
    }
  }
  EXPECT_GT(completed, 0);
}

TEST(Flood, TokenRoundZeroAtSourceMinusOneElsewhereInitially) {
  FloodFactory factory(2, 9, 4, FloodMode::kDeterministic, 0);
  auto p0 = factory.create(0, 4);
  auto p2 = factory.create(2, 4);
  EXPECT_EQ(static_cast<FloodProcess*>(p0.get())->tokenRound(), -1);
  EXPECT_EQ(static_cast<FloodProcess*>(p2.get())->tokenRound(), 0);
  EXPECT_TRUE(static_cast<FloodProcess*>(p2.get())->hasToken());
}

// A source outside [0, n) is rejected by create() and createSoA() alike,
// so the object path, the SoA path and CFLOOD all throw instead of
// running without a token holder (or writing past the SoA columns).
TEST(Flood, SourceOutsideNodeRangeThrowsOnBothPaths) {
  const NodeId n = 4;
  const auto build = [&](const sim::ProcessFactory& factory, bool soa) {
    const sim::EngineConfig config;
    sim::Engine engine =
        soa ? sim::Engine(factory, makeAdversary("static_path", n, 1), config,
                          1)
            : sim::Engine(sim::createProcesses(factory, n),
                          makeAdversary("static_path", n, 1), config, 1);
  };
  for (const NodeId source : {NodeId{-1}, n, NodeId{64}}) {
    const FloodFactory flood(source, 1, 2, FloodMode::kDeterministic, 0);
    const CFloodFactory cflood(source, 1, 2, FloodMode::kDeterministic, 3);
    for (const bool soa : {false, true}) {
      EXPECT_THROW(build(flood, soa), util::CheckError)
          << "source=" << source << " soa=" << soa;
      EXPECT_THROW(build(cflood, soa), util::CheckError)
          << "cflood source=" << source << " soa=" << soa;
    }
    EXPECT_THROW(flood.createSoA(n), util::CheckError) << "source=" << source;
  }
}

// --- CFLOOD ---

class CFloodSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(CFloodSweep, KnownDiameterConfirmsCorrectly) {
  const auto [adv_name, n] = GetParam();
  const std::uint64_t seed = 99;
  // First measure the realized diameter with a recording run, then rerun
  // CFLOOD with that D as the known-diameter input.
  FloodFactory probe(0, 1, 2, FloodMode::kDeterministic, 0);
  auto probe_engine =
      makeEngine(probe, makeAdversary(adv_name, n, seed), 3 * n, seed, true);
  for (Round r = 1; r <= 3 * n; ++r) {
    probe_engine.step();
  }
  const int diameter = net::dynamicDiameter(probe_engine.topologies(), n);
  ASSERT_GT(diameter, 0) << adv_name;

  CFloodFactory cflood(/*source=*/0, /*token=*/0x5b, /*token_bits=*/8,
                       FloodMode::kDeterministic, /*wait_rounds=*/diameter);
  auto engine = makeEngine(cflood, makeAdversary(adv_name, n, seed),
                           diameter + 1, seed);
  const auto result = engine.run();
  ASSERT_TRUE(result.all_done) << adv_name;
  // Termination = source output round = D: exactly one flooding round.
  EXPECT_EQ(result.done_round[0], diameter);
  // Confirmation is sound: everyone holds the token.
  EXPECT_TRUE(allHoldToken(engine)) << adv_name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, CFloodSweep,
    ::testing::Combine(::testing::Values("static_path", "static_star",
                                         "random_tree", "rotating_star",
                                         "interval"),
                       ::testing::Values(9, 40)));

TEST(CFlood, PessimisticWaitIsAlwaysCorrect) {
  // Unknown D: waiting N-1 rounds is correct on every adversary.
  const NodeId n = 30;
  for (const char* adv_name :
       {"static_path", "random_tree", "shuffle_path", "rotating_star"}) {
    CFloodFactory cflood(0, 1, 2, FloodMode::kDeterministic, n - 1);
    auto engine = makeEngine(cflood, makeAdversary(adv_name, n, 17), n, 17);
    const auto result = engine.run();
    ASSERT_TRUE(result.all_done) << adv_name;
    EXPECT_TRUE(allHoldToken(engine)) << adv_name;
  }
}

TEST(CFlood, OptimisticWaitFailsOnLargeDiameter) {
  // Assuming D <= 3 on a static path of 30 nodes terminates early with an
  // incorrect output — the cost of guessing the diameter wrong.
  const NodeId n = 30;
  CFloodFactory cflood(0, 1, 2, FloodMode::kDeterministic, 3);
  auto engine = makeEngine(cflood, makeAdversary("static_path", n, 1), 4, 1);
  const auto result = engine.run();
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(result.done_round[0], 3);
  EXPECT_FALSE(allHoldToken(engine));
}

// --- Max-flood: LEADERELECT / CONSENSUS / MAX with known D ---

struct KnownDCase {
  const char* adversary;
  NodeId n;
  int diameter_hint;  // upper bound on realized diameter for the run budget
};

class MaxFloodSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(MaxFloodSweep, LeaderAndConsensusAgreeOnMaxId) {
  const std::string adv_name = GetParam();
  const NodeId n = 32;
  const std::uint64_t seed = 7;
  // Measure realized diameter first.
  FloodFactory probe(0, 1, 2, FloodMode::kDeterministic, 0);
  auto probe_engine =
      makeEngine(probe, makeAdversary(adv_name, n, seed), 3 * n, seed, true);
  for (Round r = 1; r <= 3 * n; ++r) {
    probe_engine.step();
  }
  const int diameter = net::dynamicDiameter(probe_engine.topologies(), n);
  ASSERT_GT(diameter, 0);

  // LEADERELECT.
  LeaderKnownDFactory leader(diameter);
  auto leader_engine =
      makeEngine(leader, makeAdversary(adv_name, n, seed),
                 knownDRounds(diameter, n) + 1, seed);
  const auto leader_result = leader_engine.run();
  ASSERT_TRUE(leader_result.all_done);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(leader_engine.process(v).output(), static_cast<std::uint64_t>(n))
        << adv_name << " node " << v;
  }

  // CONSENSUS: inputs alternate; the max id (n-1) has input (n-1) % 2.
  std::vector<std::uint64_t> inputs;
  for (NodeId v = 0; v < n; ++v) {
    inputs.push_back(static_cast<std::uint64_t>(v) % 2);
  }
  ConsensusKnownDFactory consensus(inputs, diameter);
  auto consensus_engine =
      makeEngine(consensus, makeAdversary(adv_name, n, seed),
                 knownDRounds(diameter, n) + 1, seed);
  const auto consensus_result = consensus_engine.run();
  ASSERT_TRUE(consensus_result.all_done);
  const std::uint64_t expected = static_cast<std::uint64_t>(n - 1) % 2;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(consensus_engine.process(v).output(), expected) << adv_name;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, MaxFloodSweep,
                         ::testing::Values("static_path", "static_star",
                                           "random_tree", "rotating_star",
                                           "shuffle_path", "interval"));

TEST(MaxFlood, ValidityValueTravelsWithKey) {
  // MAX computation: key = value; everyone learns max value.
  const NodeId n = 20;
  std::vector<std::uint64_t> values;
  for (NodeId v = 0; v < n; ++v) {
    values.push_back(static_cast<std::uint64_t>((v * 7919) % 1000));
  }
  MaxFloodFactory factory(values, /*value_bits=*/16,
                          knownDRounds(/*diameter=*/2, n));
  auto engine = makeEngine(factory, makeAdversary("rotating_star", n, 3),
                           knownDRounds(2, n) + 1, 3);
  engine.run();
  // key is id+1, so the winner is node n-1 and its value must be reported.
  for (NodeId v = 0; v < n; ++v) {
    const auto* p = dynamic_cast<const MaxFloodProcess*>(&engine.process(v));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->bestKey(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(p->bestValue(), values.back());
  }
}

TEST(ConsensusKnownD, RejectsNonBinaryInputs) {
  EXPECT_THROW(ConsensusKnownDFactory({0, 2}, 3), util::CheckError);
}

// --- Counting / estimate-N ---

TEST(MinVector, EstimatorBasics) {
  MinVector mv(8);
  EXPECT_EQ(mv.estimate(), 0.0);  // all infinite
  util::Rng rng(3);
  mv.contribute(rng);
  EXPECT_GT(mv.estimate(), 0.0);
  mv.clear();
  EXPECT_EQ(mv.estimate(), 0.0);
}

TEST(MinVector, MergeOnlyShrinks) {
  MinVector mv(4);
  util::Rng rng(4);
  mv.contribute(rng);
  const double before = mv.coordinate(0);
  mv.merge(0, before + 1.0);
  EXPECT_EQ(mv.coordinate(0), before);
  mv.merge(0, before / 2);
  EXPECT_EQ(mv.coordinate(0), before / 2);
}

TEST(MinVector, EstimateAccuracyStatistical) {
  // k = 256: relative error should be well inside 20% for m = 100
  // participants, on average over seeds.
  const int k = 256;
  const int m = 100;
  util::Summary estimates;
  for (int trial = 0; trial < 20; ++trial) {
    MinVector mv(k);
    for (int node = 0; node < m; ++node) {
      util::Rng rng(util::privateSeed(static_cast<std::uint64_t>(trial), node));
      mv.contribute(rng);
    }
    estimates.add(mv.estimate());
  }
  EXPECT_NEAR(estimates.mean(), m, 0.15 * m);
}

TEST(MajorityThreshold, SoundAndCompleteAtBothEstimateExtremes) {
  // For all valid N' and a (1 ± c)-accurate estimator, the threshold must
  // (a) only fire when the true count > N/2, (b) fire when all N nodes
  // participate.
  const double n_true = 900;
  for (const double c : {0.05, 0.1, 0.2, 0.3}) {
    for (const double n_prime :
         {n_true * (1 - 0.999 * (1.0 / 3.0 - c)), n_true,
          n_true * (1 + 0.999 * (1.0 / 3.0 - c))}) {
      ASSERT_TRUE(validEstimate(n_prime, n_true, c));
      const double tau = majorityThreshold(n_prime, c);
      // Soundness: even a (1+c)-inflated estimate of exactly N/2 nodes must
      // not reach tau.
      EXPECT_GT(tau, (1 + c) * n_true / 2 * (1 - 1e-9))
          << "c=" << c << " N'=" << n_prime;
      // Completeness: a (1-c)-deflated estimate of all N nodes must reach tau.
      EXPECT_LE(tau, (1 - c) * n_true * (1 + 1e-9))
          << "c=" << c << " N'=" << n_prime;
    }
  }
}

TEST(CoordCount, ScalesInverseSquare) {
  EXPECT_GT(coordCountFor(0.05), coordCountFor(0.1));
  EXPECT_GT(coordCountFor(0.1), coordCountFor(0.3));
  EXPECT_LE(coordCountFor(0.01), 1024);
  EXPECT_GE(coordCountFor(1.0 / 3.0), 16);
}

class CountingSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(CountingSweep, EstimatesNWithKnownDiameter) {
  const std::string adv_name = GetParam();
  const NodeId n = 64;
  const int k = 128;
  const int diameter_cap = adv_name == "static_path" ? n : 8;
  const Round rounds = countingRounds(k, diameter_cap, n, 2);
  CountingFactory factory(k, rounds, /*master_seed=*/11);
  auto engine =
      makeEngine(factory, makeAdversary(adv_name, n, 11), rounds + 1, 11);
  const auto result = engine.run();
  ASSERT_TRUE(result.all_done) << adv_name;
  for (NodeId v = 0; v < n; v += 13) {
    const auto* p = dynamic_cast<const CountingProcess*>(&engine.process(v));
    ASSERT_NE(p, nullptr);
    EXPECT_NEAR(p->estimate(), n, 0.35 * n) << adv_name << " node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, CountingSweep,
                         ::testing::Values("static_star", "random_tree",
                                           "rotating_star"));

TEST(Counting, UnderCountsWhenRoundsTooFew) {
  // HEAR-FROM-N with too small a budget: estimates only fall short, never
  // overshoot beyond statistical error — the one-sided behaviour the §7
  // protocol relies on.
  const NodeId n = 64;
  const int k = 128;
  CountingFactory factory(k, /*total_rounds=*/k, 13);
  auto engine = makeEngine(factory, makeAdversary("static_path", n, 13), k + 1, 13);
  engine.run();
  // The path's middle node has only seen a small neighbourhood.
  const auto* p = dynamic_cast<const CountingProcess*>(&engine.process(n / 2));
  ASSERT_NE(p, nullptr);
  EXPECT_LT(p->estimate(), n * 0.8);
}

}  // namespace
}  // namespace dynet::proto
