// Trace serialization: round trips, validation, and re-analysis of
// recorded executions.
#include <gtest/gtest.h>

#include <sstream>

#include "adversary/churn_adversaries.h"
#include "adversary/dynamic_adversaries.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "net/churn.h"
#include "net/diameter.h"
#include "protocols/oracles.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace dynet::sim {
namespace {

Trace recordedRun(NodeId n, Round rounds, std::uint64_t seed) {
  proto::RandomBabblerFactory factory(24);
  std::vector<std::unique_ptr<Process>> ps;
  for (NodeId v = 0; v < n; ++v) {
    ps.push_back(factory.create(v, n));
  }
  EngineConfig config;
  config.max_rounds = rounds;
  config.record_topologies = true;
  config.record_actions = true;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps),
                std::make_unique<adv::RandomTreeAdversary>(n, seed), config,
                seed);
  engine.run();
  return engine.trace();
}

TEST(Trace, RoundTripPreservesEverything) {
  const Trace original = recordedRun(12, 9, 5);
  std::stringstream buffer;
  writeTrace(buffer, original);
  const Trace parsed = readTrace(buffer);

  ASSERT_EQ(parsed.num_nodes, original.num_nodes);
  ASSERT_EQ(parsed.rounds(), original.rounds());
  for (Round r = 0; r < original.rounds(); ++r) {
    const auto& go = *original.topologies[static_cast<std::size_t>(r)];
    const auto& gp = *parsed.topologies[static_cast<std::size_t>(r)];
    ASSERT_EQ(go.numEdges(), gp.numEdges()) << "round " << r;
    for (std::size_t e = 0; e < go.numEdges(); ++e) {
      EXPECT_EQ(go.edges()[e], gp.edges()[e]);
    }
    for (NodeId v = 0; v < original.num_nodes; ++v) {
      EXPECT_TRUE(original.actions[static_cast<std::size_t>(r)]
                                  [static_cast<std::size_t>(v)] ==
                  parsed.actions[static_cast<std::size_t>(r)]
                                [static_cast<std::size_t>(v)])
          << "round " << r << " node " << v;
    }
  }
}

TEST(Trace, TopologyOnlyRoundTrip) {
  Trace trace = recordedRun(8, 5, 7);
  trace.actions.clear();
  std::stringstream buffer;
  writeTrace(buffer, trace);
  const Trace parsed = readTrace(buffer);
  EXPECT_EQ(parsed.rounds(), 5);
  EXPECT_TRUE(parsed.actions.empty());
}

TEST(Trace, ReanalysisMatchesLiveMetrics) {
  // Diameter and churn computed from the parsed trace equal the live ones.
  const Trace original = recordedRun(16, 40, 9);
  std::stringstream buffer;
  writeTrace(buffer, original);
  const Trace parsed = readTrace(buffer);
  EXPECT_EQ(net::allSourcesEccentricity(parsed.topologies, 0),
            net::allSourcesEccentricity(original.topologies, 0));
  EXPECT_DOUBLE_EQ(net::meanConsecutiveJaccard(parsed.topologies),
                   net::meanConsecutiveJaccard(original.topologies));
}

TEST(Trace, RejectsBadHeader) {
  std::stringstream buffer("not-a-trace\n");
  EXPECT_THROW(readTrace(buffer), util::CheckError);
}

TEST(Trace, RejectsNonContiguousRounds) {
  std::stringstream buffer("dynet-trace v1\nn 3\nr 2\ne 0 1\ne 1 2\n");
  EXPECT_THROW(readTrace(buffer), util::CheckError);
}

TEST(Trace, RejectsUnknownTag) {
  std::stringstream buffer("dynet-trace v1\nn 2\nr 1\ne 0 1\nz 9\n");
  EXPECT_THROW(readTrace(buffer), util::CheckError);
}

TEST(Trace, RejectsEmpty) {
  std::stringstream buffer("dynet-trace v1\nn 2\n");
  EXPECT_THROW(readTrace(buffer), util::CheckError);
}

/// readTrace(text) must throw a CheckError whose message contains
/// `expected` (the 1-based line number and the line's text).
void expectRejected(const std::string& text, const std::string& expected) {
  std::stringstream buffer(text);
  try {
    readTrace(buffer);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
}

// Every field is parsed whole and range-checked; a failure names the line.
TEST(Trace, RejectsMalformedFields) {
  const std::string head = "dynet-trace v1\nn 3\nr 1\ne 0 1\ne 1 2\n";
  expectRejected(head + "s 0 8 zz\n", "trace line 6 's 0 8 zz'");
  expectRejected(head + "s 0 8 " + std::string(17, 'f') + "\n",
                 "bad hex word '" + std::string(17, 'f') + "'");
  expectRejected(head + "s 0 -5 0\n", "trace line 6 's 0 -5 0': bad bit count");
  expectRejected(head + "s 0 257 0,0,0,0,0\n", "bad bit count (need 0..256)");
  expectRejected(head + "s 0 72 ff\n", "payload needs 2 hex words");
  expectRejected(head + "s 0 8 ff extra\n", "'s' takes 3 fields");
  expectRejected(head + "s 3 8 ff\n", "bad node '3' (need 0..2)");
  expectRejected("dynet-trace v1\nn 3\nr 1\ne 0 x\n",
                 "trace line 4 'e 0 x': bad node 'x'");
  expectRejected("dynet-trace v1\nn 3\nr 1\ne 1 1\n",
                 "trace line 4 'e 1 1': self-loop at 1");
  expectRejected("dynet-trace v1\nn 3\nr 2x\n",
                 "trace line 3 'r 2x': bad round number");
  expectRejected("dynet-trace v1\nn 3x\n", "trace line 2 'n 3x': bad node count");
  expectRejected("dynet-trace v1\nn 0\n", "trace line 2 'n 0': bad node count");
}

// `n` comes once, before any round; `e`, `s` and `q` only inside a round.
TEST(Trace, RejectsRecordsOutsideTheirPlace) {
  expectRejected("dynet-trace v1\nn 2\ne 0 1\nr 1\n",
                 "trace line 3 'e 0 1': 'e' outside a round");
  expectRejected("dynet-trace v1\nn 2\nq 0\n", "'q' outside a round");
  expectRejected("dynet-trace v1\nn 2\nr 1\ne 0 1\nn 2\n",
                 "trace line 5 'n 2': 'n' must appear once, before any round");
  expectRejected("dynet-trace v1\nn 2\nn 2\nr 1\ne 0 1\n",
                 "'n' must appear once");
  expectRejected("dynet-trace v1\nr 1\n", "trace line 2 'r 1': round before 'n'");
}

// An action trace lists every node exactly once in every round, so
// trace.actions is empty or holds one entry per round.
TEST(Trace, RejectsActionRoundsThatSkipOrRepeatNodes) {
  const std::string round1 =
      "dynet-trace v1\nn 3\nr 1\ne 0 1\ne 1 2\ns 0 8 aa\nq 1\nq 2\n";
  std::stringstream complete(round1);
  EXPECT_EQ(readTrace(complete).actions.size(), 1u);
  expectRejected(round1 + "r 2\ne 0 1\ne 1 2\ns 2 8 aa\n",
                 "trace round 2 lists no action for node 0");
  expectRejected(round1 + "r 2\ne 0 1\ne 1 2\nq 0\nq 2\nr 3\ne 0 1\ne 1 2\n",
                 "trace round 2 lists no action for node 1");
  expectRejected("dynet-trace v1\nn 3\nr 1\ne 0 1\ne 1 2\ns 0 8 aa\nq 0\n",
                 "trace line 7 'q 0': node 0 listed twice in round 1");
  // Actions that start in round 2 leave round 1 without any.
  expectRejected("dynet-trace v1\nn 2\nr 1\ne 0 1\nr 2\ne 0 1\ns 0 8 aa\nq 1\n",
                 "trace round 1 lists no action for node 0");
}

TEST(Trace, WideMessageRoundTrip) {
  // Payload wider than 64 bits survives the word-split encoding.
  Trace trace;
  trace.num_nodes = 2;
  trace.topologies.push_back(
      std::make_shared<net::Graph>(2, std::vector<net::Edge>{{0, 1}}));
  std::vector<Action> actions(2);
  MessageBuilder builder;
  builder.put(0xdeadbeefcafef00dULL, 64);
  builder.put(0x12345, 20);
  actions[0].send = true;
  actions[0].msg = builder.build();
  trace.actions.push_back(actions);
  std::stringstream buffer;
  writeTrace(buffer, trace);
  const Trace parsed = readTrace(buffer);
  ASSERT_TRUE(parsed.actions[0][0].send);
  EXPECT_TRUE(parsed.actions[0][0].msg == actions[0].msg);
}

TEST(Trace, FaultInjectedRunRoundTrips) {
  // A run with crashed *and* restarted nodes still serializes and parses:
  // crashed nodes simply record non-sending actions, which the format
  // already covers.  The parsed trace must match the recorded one exactly.
  const NodeId n = 14;
  proto::RandomBabblerFactory factory(24);
  std::vector<std::unique_ptr<Process>> ps;
  for (NodeId v = 0; v < n; ++v) {
    ps.push_back(factory.create(v, n));
  }
  EngineConfig config;
  config.max_rounds = 40;
  config.record_topologies = true;
  config.record_actions = true;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps),
                std::make_unique<adv::RandomGraphAdversary>(n, 0.25, 4),
                config, /*seed=*/13);
  faults::FaultConfig fc;
  fc.crash_fraction = 0.3;
  fc.crash_window = 15;
  fc.restart = true;
  fc.restart_downtime = 8;
  fc.drop_prob = 0.1;
  engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
      faults::FaultPlan(n, fc, /*seed=*/0xC0), &factory));
  const RunResult result = engine.run();
  ASSERT_GT(result.crashes, 0u);
  ASSERT_GT(result.restarts, 0u);

  const Trace& original = engine.trace();
  std::stringstream buffer;
  writeTrace(buffer, original);
  const Trace parsed = readTrace(buffer);
  ASSERT_EQ(parsed.rounds(), original.rounds());
  for (Round r = 0; r < original.rounds(); ++r) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_TRUE(original.actions[static_cast<std::size_t>(r)]
                                  [static_cast<std::size_t>(v)] ==
                  parsed.actions[static_cast<std::size_t>(r)]
                                [static_cast<std::size_t>(v)])
          << "round " << r << " node " << v;
    }
  }
}

TEST(Trace, EngineWithoutRecordingRejected) {
  proto::RandomBabblerFactory factory(8);
  std::vector<std::unique_ptr<Process>> ps;
  ps.push_back(factory.create(0, 2));
  ps.push_back(factory.create(1, 2));
  EngineConfig config;
  config.max_rounds = 2;
  config.stop_when_all_done = false;
  Engine engine(std::move(ps),
                std::make_unique<adv::RandomTreeAdversary>(2, 1), config, 1);
  engine.run();
  std::ostringstream out;
  EXPECT_THROW(writeTrace(out, engine.trace()), util::CheckError);
}

}  // namespace
}  // namespace dynet::sim
