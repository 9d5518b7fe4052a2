// The §7 unknown-diameter LEADERELECT protocol and consensus-via-leader:
// schedule algebra, correctness across the adversary zoo, agreement,
// lock/unlock behaviour, and the flooding-round complexity shape.
#include <gtest/gtest.h>

#include <memory>
#include <map>
#include <set>
#include <vector>

#include "adversary/static_adversaries.h"
#include "campaign/shard_exec.h"
#include "net/diameter.h"
#include "protocols/consensus_via_leader.h"
#include "protocols/leader_unknown_d.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace dynet::proto {
namespace {

using sim::NodeId;
using sim::Round;

LeaderConfig baseConfig(NodeId n, double estimate_skew = 1.0) {
  LeaderConfig config;
  config.n_estimate = n * estimate_skew;
  config.c = 0.25;
  config.k = 64;
  return config;
}

std::unique_ptr<sim::Adversary> makeAdversary(const std::string& name, NodeId n,
                                              std::uint64_t seed) {
  campaign::ShardConfig shard;
  shard.adversary = name;
  shard.n = n;
  return campaign::makeAdversary(shard, seed);
}

TEST(LeaderSchedule, StagesPartitionPhases) {
  LeaderConfig config = baseConfig(100);
  LeaderSchedule schedule(config);
  // Walk 3 full phases round by round: stages must appear in order A,B,C,D
  // with the advertised lengths, and offsets must be contiguous.
  Round r = 1;
  for (int phase = 0; phase < 3; ++phase) {
    EXPECT_EQ(schedule.phaseStart(phase), r);
    const Round lens[4] = {schedule.stageALen(phase), schedule.stageBLen(phase),
                           schedule.stageALen(phase), schedule.stageBLen(phase)};
    for (int stage = 0; stage < 4; ++stage) {
      for (Round off = 0; off < lens[stage]; ++off, ++r) {
        const auto pos = schedule.locate(r);
        ASSERT_EQ(pos.phase, phase) << "r=" << r;
        ASSERT_EQ(pos.stage, stage) << "r=" << r;
        ASSERT_EQ(pos.offset, off) << "r=" << r;
        ASSERT_EQ(pos.stage_len, lens[stage]) << "r=" << r;
      }
    }
  }
}

// locate() remembers the phase it last answered in; a round outside that
// phase falls back to the walk.  Neither may change an answer, whatever
// order the rounds come in.
TEST(LeaderSchedule, LocateAnswersRoundsInAnyOrder) {
  const LeaderConfig config = baseConfig(40);
  const LeaderSchedule schedule(config);
  const auto expectFresh = [&](Round r) {
    const LeaderSchedule::Pos got = schedule.locate(r);
    const LeaderSchedule::Pos want = LeaderSchedule(config).locate(r);
    ASSERT_EQ(got.phase, want.phase) << "r=" << r;
    ASSERT_EQ(got.stage, want.stage) << "r=" << r;
    ASSERT_EQ(got.offset, want.offset) << "r=" << r;
    ASSERT_EQ(got.stage_len, want.stage_len) << "r=" << r;
  };
  const Round last = schedule.phaseStart(5);
  for (Round r = 1; r <= last; ++r) {
    expectFresh(r);
  }
  for (Round r = last; r >= 1; --r) {
    expectFresh(r);
  }
  // Random rounds through phase 6, every phase's first and last round, and
  // repeats, shuffled.
  util::Rng rng(0x10CA7E);
  std::vector<Round> rounds;
  for (int phase = 0; phase <= 6; ++phase) {
    rounds.push_back(schedule.phaseStart(phase));
    rounds.push_back(schedule.phaseStart(phase + 1) - 1);
  }
  const Round end = schedule.phaseStart(7);
  while (rounds.size() < 2000) {
    rounds.push_back(rng.below(4) == 0
                         ? rounds[rng.below(rounds.size())]
                         : 1 + static_cast<Round>(rng.below(
                                   static_cast<std::uint64_t>(end - 1))));
  }
  for (std::size_t j = rounds.size(); j > 1; --j) {
    std::swap(rounds[j - 1], rounds[rng.below(j)]);
  }
  for (const Round r : rounds) {
    expectFresh(r);
  }
}

TEST(LeaderSchedule, LengthsDoubleWithPhase) {
  LeaderSchedule schedule(baseConfig(100));
  // D' doubles each phase; stage lengths are affine in D'.
  const Round a0 = schedule.stageALen(0);
  const Round a3 = schedule.stageALen(3);
  EXPECT_GT(a3, 4 * (a0 - 8));
  EXPECT_GT(schedule.stageBLen(2), schedule.stageBLen(1));
}

TEST(LeaderSchedule, DerivesKFromC) {
  LeaderConfig config = baseConfig(100);
  config.k = 0;
  config.c = 0.25;
  LeaderSchedule schedule(config);
  EXPECT_EQ(schedule.k(), coordCountFor(0.25));
}

struct LeaderOutcome {
  bool all_done = false;
  Round rounds = 0;
  std::uint64_t leader = 0;
  bool agreement = true;
  int declared_phase = -1;
};

LeaderOutcome runLeader(const std::string& adv_name, NodeId n,
                        const LeaderConfig& config, std::uint64_t seed,
                        Round max_rounds = 3'000'000) {
  LeaderElectFactory factory(config, util::hashCombine(seed, 0xabcd));
  std::vector<std::unique_ptr<sim::Process>> ps;
  for (NodeId v = 0; v < n; ++v) {
    ps.push_back(factory.create(v, n));
  }
  sim::EngineConfig engine_config;
  engine_config.max_rounds = max_rounds;
  sim::Engine engine(std::move(ps), makeAdversary(adv_name, n, seed),
                     engine_config, seed);
  const auto result = engine.run();
  LeaderOutcome outcome;
  outcome.all_done = result.all_done;
  outcome.rounds = result.all_done_round;
  if (result.all_done) {
    outcome.leader = engine.process(0).output();
    for (NodeId v = 0; v < n; ++v) {
      outcome.agreement =
          outcome.agreement && engine.process(v).output() == outcome.leader;
      const auto* lp =
          dynamic_cast<const LeaderElectProcess*>(&engine.process(v));
      if (lp != nullptr && lp->declaredInPhase() >= 0) {
        outcome.declared_phase = lp->declaredInPhase();
      }
    }
  }
  return outcome;
}

class LeaderZooSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(LeaderZooSweep, ElectsUniqueLeaderWithAgreement) {
  const auto [adv_name, n] = GetParam();
  const LeaderOutcome outcome =
      runLeader(adv_name, static_cast<NodeId>(n), baseConfig(n), 2024);
  ASSERT_TRUE(outcome.all_done) << adv_name << " n=" << n;
  EXPECT_TRUE(outcome.agreement) << adv_name << " n=" << n;
  // The elected leader is whp the max id (key n); any unique agreed leader
  // satisfies the problem, but on these adversaries the max always wins.
  EXPECT_EQ(outcome.leader, static_cast<std::uint64_t>(n)) << adv_name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, LeaderZooSweep,
    ::testing::Combine(::testing::Values("static_star", "static_ring",
                                         "random_tree", "rotating_star",
                                         "shuffle_path", "interval"),
                       ::testing::Values(16, 48)));

TEST(LeaderUnknownD, StaticPathLargeDiameter) {
  const NodeId n = 64;
  const LeaderOutcome outcome = runLeader("static_path", n, baseConfig(n), 7);
  ASSERT_TRUE(outcome.all_done);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_EQ(outcome.leader, static_cast<std::uint64_t>(n));
  // Declaration cannot happen before D' reaches ~D: with D = 63 the
  // declaring phase must be at least 4 (D' = 16 covers nothing near 63/2).
  EXPECT_GE(outcome.declared_phase, 3);
}

TEST(LeaderUnknownD, EstimateSkewWithinPromiseStillWorks) {
  const NodeId n = 48;
  for (const double skew : {0.78, 1.0, 1.25}) {
    // c = 0.25: promise allows |N'-N|/N <= 1/12 — use modest skews within
    // a looser c to exercise both sides.
    LeaderConfig config = baseConfig(n, skew);
    config.c = 0.05;
    config.k = 96;
    const LeaderOutcome outcome = runLeader("random_tree", n, config, 31);
    ASSERT_TRUE(outcome.all_done) << "skew=" << skew;
    EXPECT_TRUE(outcome.agreement) << "skew=" << skew;
    EXPECT_EQ(outcome.leader, static_cast<std::uint64_t>(n)) << "skew=" << skew;
  }
}

TEST(LeaderUnknownD, ManySeedsNoDoubleLeader) {
  // Agreement/uniqueness across seeds (Monte Carlo error must be rare; we
  // demand zero failures in this batch).
  const NodeId n = 24;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const LeaderOutcome outcome = runLeader("random_tree", n, baseConfig(n), seed);
    ASSERT_TRUE(outcome.all_done) << "seed=" << seed;
    EXPECT_TRUE(outcome.agreement) << "seed=" << seed;
  }
}

TEST(LeaderUnknownD, SingleNodeElectsItself) {
  LeaderConfig config = baseConfig(1);
  LeaderElectFactory factory(config, 5);
  std::vector<std::unique_ptr<sim::Process>> ps;
  ps.push_back(factory.create(0, 1));
  sim::EngineConfig engine_config;
  engine_config.max_rounds = 100000;
  sim::Engine engine(std::move(ps),
                     std::make_unique<adv::StaticAdversary>(
                         std::make_shared<net::Graph>(1, std::vector<net::Edge>{})),
                     engine_config, 5);
  const auto result = engine.run();
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(engine.process(0).output(), 1u);
}

TEST(LeaderUnknownD, FloodingRoundComplexityIsPolylog) {
  // The headline upper-bound shape: rounds / D stays polylogarithmic in N.
  // The absolute constant is k-dominated (k = 64 counting coordinates), so
  // the honest assertions are (a) a polylog envelope and (b) strongly
  // sublinear growth in N — quadrupling N must not come close to
  // quadrupling the flooding rounds.  (The crossover against the Θ(N log N)
  // pessimistic baseline is charted by bench_gap.)
  // Rotating star: realized D <= 2.
  std::map<NodeId, double> flooding_rounds;
  for (const NodeId n : {16, 64, 256}) {
    const LeaderOutcome outcome = runLeader("rotating_star", n, baseConfig(n), 5);
    ASSERT_TRUE(outcome.all_done) << n;
    flooding_rounds[n] = outcome.rounds / 2.0;
    const double log_n = std::log2(static_cast<double>(n));
    EXPECT_LT(flooding_rounds[n], 700 * log_n * log_n) << "n=" << n;
  }
  EXPECT_LT(flooding_rounds[64], 4.0 * flooding_rounds[16] * 0.9);
  EXPECT_LT(flooding_rounds[256], 4.0 * flooding_rounds[64] * 0.9);
}

TEST(ConsensusViaLeader, DecidesLeadersInput) {
  const NodeId n = 32;
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    inputs[static_cast<std::size_t>(v)] = (v % 3 == 0) ? 1 : 0;
  }
  ConsensusViaLeaderFactory factory(baseConfig(n), 77, inputs);
  std::vector<std::unique_ptr<sim::Process>> ps;
  for (NodeId v = 0; v < n; ++v) {
    ps.push_back(factory.create(v, n));
  }
  sim::EngineConfig engine_config;
  engine_config.max_rounds = 3'000'000;
  sim::Engine engine(std::move(ps), makeAdversary("random_tree", n, 12),
                     engine_config, 12);
  const auto result = engine.run();
  ASSERT_TRUE(result.all_done);
  // Whp the max id (node n-1) leads; its input is (n-1) % 3 == 0 ? 1 : 0.
  const std::uint64_t decided = engine.process(0).output();
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(engine.process(v).output(), decided);  // agreement
  }
  // Validity: the decision is some node's input.
  std::set<std::uint64_t> input_set(inputs.begin(), inputs.end());
  EXPECT_TRUE(input_set.count(decided) == 1);
}

TEST(ConsensusViaLeader, UnanimousInputsDecideThatValue) {
  const NodeId n = 16;
  for (const std::uint64_t value : {0ull, 1ull}) {
    std::vector<std::uint64_t> inputs(static_cast<std::size_t>(n), value);
    ConsensusViaLeaderFactory factory(baseConfig(n), 3, inputs);
    std::vector<std::unique_ptr<sim::Process>> ps;
    for (NodeId v = 0; v < n; ++v) {
      ps.push_back(factory.create(v, n));
    }
    sim::EngineConfig engine_config;
    engine_config.max_rounds = 2'000'000;
    sim::Engine engine(std::move(ps), makeAdversary("rotating_star", n, 4),
                       engine_config, 4);
    const auto result = engine.run();
    ASSERT_TRUE(result.all_done);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(engine.process(v).output(), value);
    }
  }
}

TEST(LeaderElectFactory, RequiresInputsWhenCarryingValue) {
  LeaderConfig config = baseConfig(4);
  config.carry_value = true;
  LeaderElectFactory factory(config, 1, {});
  EXPECT_THROW(factory.create(0, 4), util::CheckError);
}

}  // namespace
}  // namespace dynet::proto
