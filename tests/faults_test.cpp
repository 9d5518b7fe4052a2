// Fault-injection subsystem tests: FaultPlan schedules, engine integration
// (crash-stop, restart, drop, corruption), checksum framing, the all-zero
// regression guarantee, the relaxed live-subgraph connectivity invariant,
// and the hardened protocols (ResilientFlood, robust leader election).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/static_adversaries.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "net/graph.h"
#include "protocols/flood.h"
#include "protocols/framing.h"
#include "protocols/leader_unknown_d.h"
#include "protocols/resilient_flood.h"
#include "protocols/robust_leader.h"
#include "sim/engine.h"
#include "sim/batch.h"
#include "sim/trace.h"
#include "util/check.h"

namespace dynet {
namespace {

using faults::FaultConfig;
using faults::FaultInjector;
using faults::FaultPlan;

// ---------------------------------------------------------------------------
// Test processes.

/// Sends a fixed payload every round; never done.
class AlwaysSend : public sim::Process {
 public:
  AlwaysSend(std::uint64_t value, int bits) : value_(value), bits_(bits) {}

  sim::Action onRound(sim::Round, util::CoinStream&) override {
    sim::Action a;
    a.send = true;
    a.msg = sim::MessageBuilder().put(value_, bits_).build();
    return a;
  }
  void onDeliver(sim::Round, bool, std::span<const sim::Message>) override {}

 private:
  std::uint64_t value_;
  int bits_;
};

/// Listens every round and records everything delivered.
class Recorder : public sim::Process {
 public:
  sim::Action onRound(sim::Round, util::CoinStream&) override { return {}; }
  void onDeliver(sim::Round, bool,
                 std::span<const sim::Message> received) override {
    for (const sim::Message& m : received) {
      received_.push_back(m);
    }
  }

  const std::vector<sim::Message>& received() const { return received_; }

 private:
  std::vector<sim::Message> received_;
};

/// Counts its onRound invocations; never sends, never done.
class RoundCounter : public sim::Process {
 public:
  sim::Action onRound(sim::Round, util::CoinStream&) override {
    ++rounds_seen_;
    return {};
  }
  void onDeliver(sim::Round, bool, std::span<const sim::Message>) override {}

  int roundsSeen() const { return rounds_seen_; }

 private:
  int rounds_seen_ = 0;
};

/// Serves a fixed graph without StaticAdversary's connectivity assertion —
/// for exercising the engine's own (relaxed) invariant checks.
class RawStaticAdversary : public sim::Adversary {
 public:
  explicit RawStaticAdversary(net::GraphPtr graph) : graph_(std::move(graph)) {}

  net::GraphPtr topology(sim::Round, const sim::RoundObservation&) override {
    return graph_;
  }
  sim::NodeId numNodes() const override { return graph_->numNodes(); }

 private:
  net::GraphPtr graph_;
};

class RoundCounterFactory : public sim::ProcessFactory {
 public:
  std::unique_ptr<sim::Process> create(sim::NodeId, sim::NodeId) const override {
    return std::make_unique<RoundCounter>();
  }
};

sim::EngineConfig runForever(sim::Round max_rounds) {
  sim::EngineConfig config;
  config.max_rounds = max_rounds;
  config.stop_when_all_done = false;
  return config;
}

std::shared_ptr<const FaultInjector> injectorFor(
    sim::NodeId n, const FaultConfig& config, std::uint64_t seed,
    const sim::ProcessFactory* factory = nullptr) {
  return std::make_shared<const FaultInjector>(FaultPlan(n, config, seed),
                                               factory);
}

// ---------------------------------------------------------------------------
// FaultPlan.

TEST(FaultPlan, DefaultConfigIsZero) {
  FaultPlan plan(16, FaultConfig{}, 42);
  EXPECT_TRUE(plan.zero());
  EXPECT_FALSE(plan.hasCrashes());
  EXPECT_FALSE(plan.hasRestarts());
  for (sim::NodeId v = 0; v < 16; ++v) {
    EXPECT_EQ(plan.crashRound(v), 0);
    EXPECT_FALSE(plan.isCrashed(v, 1000));
    for (sim::NodeId u = 0; u < 16; ++u) {
      EXPECT_EQ(plan.deliveryFate(u, v, 7), FaultPlan::Fate::kDeliver);
    }
  }
}

TEST(FaultPlan, SameSeedSameSchedule) {
  FaultConfig config;
  config.crash_fraction = 0.25;
  config.restart = true;
  config.drop_prob = 0.2;
  config.corrupt_prob = 0.1;
  FaultPlan a(32, config, 7), b(32, config, 7), c(32, config, 8);
  bool any_difference_vs_c = false;
  for (sim::NodeId v = 0; v < 32; ++v) {
    EXPECT_EQ(a.crashRound(v), b.crashRound(v));
    EXPECT_EQ(a.restartRound(v), b.restartRound(v));
    for (sim::Round r = 1; r <= 16; ++r) {
      EXPECT_EQ(a.deliveryFate(v, (v + 1) % 32, r),
                b.deliveryFate(v, (v + 1) % 32, r));
      if (a.deliveryFate(v, (v + 1) % 32, r) !=
          c.deliveryFate(v, (v + 1) % 32, r)) {
        any_difference_vs_c = true;
      }
    }
  }
  EXPECT_TRUE(any_difference_vs_c) << "distinct seeds produced identical fates";
}

TEST(FaultPlan, CrashCountAndWindows) {
  FaultConfig config;
  config.crash_fraction = 0.25;
  config.crash_window = 10;
  config.restart = true;
  config.restart_downtime = 5;
  FaultPlan plan(40, config, 3);
  int crashed = 0;
  for (sim::NodeId v = 0; v < 40; ++v) {
    const sim::Round crash = plan.crashRound(v);
    if (crash == 0) {
      EXPECT_EQ(plan.restartRound(v), 0);
      continue;
    }
    ++crashed;
    EXPECT_GE(crash, 1);
    EXPECT_LE(crash, 10);
    const sim::Round restart = plan.restartRound(v);
    EXPECT_GT(restart, crash);
    EXPECT_LE(restart, crash + 5);
    EXPECT_FALSE(plan.isCrashed(v, crash - 1));
    EXPECT_TRUE(plan.isCrashed(v, crash));
    EXPECT_TRUE(plan.isCrashed(v, restart - 1));
    EXPECT_FALSE(plan.isCrashed(v, restart));
    EXPECT_TRUE(plan.restartsAt(v, restart));
  }
  EXPECT_EQ(crashed, 10);  // floor(0.25 * 40)
  EXPECT_TRUE(plan.hasCrashes());
  EXPECT_TRUE(plan.hasRestarts());
}

TEST(FaultPlan, ScriptedCrashAndRestart) {
  FaultConfig config;
  config.scripted_crashes = {{3, 5}};
  config.scripted_restarts = {{3, 9}};
  FaultPlan plan(8, config, 1);
  EXPECT_FALSE(plan.zero());
  EXPECT_TRUE(plan.hasCrashes());
  EXPECT_TRUE(plan.hasRestarts());
  EXPECT_EQ(plan.crashRound(3), 5);
  EXPECT_EQ(plan.restartRound(3), 9);
  EXPECT_FALSE(plan.isCrashed(3, 4));
  EXPECT_TRUE(plan.isCrashed(3, 5));
  EXPECT_TRUE(plan.isCrashed(3, 8));
  EXPECT_FALSE(plan.isCrashed(3, 9));
  EXPECT_TRUE(plan.restartsAt(3, 9));
  EXPECT_EQ(plan.crashRound(0), 0);
}

TEST(FaultPlan, ScriptedRestartWithoutCrashRejected) {
  FaultConfig config;
  config.scripted_restarts = {{2, 9}};
  EXPECT_THROW(FaultPlan(8, config, 1), util::CheckError);
}

TEST(FaultPlan, DropRateMatchesProbability) {
  FaultConfig config;
  config.drop_prob = 0.3;
  FaultPlan plan(64, config, 11);
  int dropped = 0, total = 0;
  for (sim::NodeId u = 0; u < 64; ++u) {
    for (sim::NodeId v = 0; v < 64; ++v) {
      for (sim::Round r = 1; r <= 4; ++r) {
        ++total;
        if (plan.deliveryFate(u, v, r) == FaultPlan::Fate::kDrop) {
          ++dropped;
        }
      }
    }
  }
  const double rate = static_cast<double>(dropped) / total;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(FaultPlan, CorruptBitIndexInRange) {
  FaultConfig config;
  config.corrupt_prob = 1.0;
  FaultPlan plan(4, config, 5);
  for (sim::Round r = 1; r <= 50; ++r) {
    const int bit = plan.corruptBitIndex(0, 1, r, 17);
    EXPECT_GE(bit, 0);
    EXPECT_LT(bit, 17);
  }
}

// ---------------------------------------------------------------------------
// connectedOn + Message::withBitFlipped.

TEST(ConnectedOn, LiveSubgraph) {
  auto path = net::makePath(3);
  std::vector<char> all = {1, 1, 1};
  EXPECT_TRUE(net::connectedOn(*path, all));
  std::vector<char> mid_dead = {1, 0, 1};
  EXPECT_FALSE(net::connectedOn(*path, mid_dead));  // 0 and 2 severed
  auto clique = net::makeClique(3);
  EXPECT_TRUE(net::connectedOn(*clique, mid_dead));
  std::vector<char> one_live = {0, 0, 1};
  EXPECT_TRUE(net::connectedOn(*path, one_live));  // vacuous
  std::vector<char> none_live = {0, 0, 0};
  EXPECT_TRUE(net::connectedOn(*path, none_live));
}

TEST(MessageFaults, WithBitFlippedTogglesExactlyOneBit) {
  const sim::Message msg = sim::MessageBuilder().put(0xABCDu, 16).build();
  for (int bit = 0; bit < 16; ++bit) {
    const sim::Message flipped = msg.withBitFlipped(bit);
    EXPECT_NE(flipped, msg);
    EXPECT_EQ(flipped.bitSize(), msg.bitSize());
    EXPECT_EQ(flipped.withBitFlipped(bit), msg);  // involution
  }
  EXPECT_THROW(msg.withBitFlipped(16), util::CheckError);
  EXPECT_THROW(msg.withBitFlipped(-1), util::CheckError);
}

// ---------------------------------------------------------------------------
// Framing.

TEST(Framing, RoundTrip) {
  const sim::Message payload = sim::MessageBuilder().put(0x2F1u, 12).build();
  const sim::Message framed = proto::frameWithChecksum(payload);
  EXPECT_EQ(framed.bitSize(), payload.bitSize() + proto::kChecksumBits);
  sim::Message stripped;
  ASSERT_TRUE(proto::verifyAndStrip(framed, stripped));
  EXPECT_EQ(stripped, payload);
}

TEST(Framing, EveryFlippedBitIsDetected) {
  const sim::Message payload =
      sim::MessageBuilder().put(0xDEADBEEFu, 32).build();
  const sim::Message framed = proto::frameWithChecksum(payload);
  for (int bit = 0; bit < framed.bitSize(); ++bit) {
    sim::Message stripped;
    EXPECT_FALSE(proto::verifyAndStrip(framed.withBitFlipped(bit), stripped))
        << "flipped bit " << bit << " slipped through";
  }
}

TEST(Framing, UndersizedFrameRejected) {
  const sim::Message tiny = sim::MessageBuilder().put(1, 4).build();
  sim::Message stripped;
  EXPECT_FALSE(proto::verifyAndStrip(tiny, stripped));
  sim::Message empty;
  EXPECT_FALSE(proto::verifyAndStrip(empty, stripped));
}

// ---------------------------------------------------------------------------
// Engine integration.

TEST(EngineFaults, CrashStopNodeGoesSilentAndIsExemptFromAllDone) {
  const sim::NodeId n = 4;
  std::vector<std::unique_ptr<sim::Process>> processes;
  proto::FloodFactory factory(/*source=*/0, /*token=*/0x5, /*token_bits=*/4,
                              proto::FloodMode::kDeterministic,
                              /*halt_round=*/3);
  for (sim::NodeId v = 0; v < n; ++v) {
    processes.push_back(factory.create(v, n));
  }
  auto adversary = std::make_unique<adv::StaticAdversary>(net::makeClique(n));
  sim::EngineConfig config;
  config.max_rounds = 3;
  sim::Engine engine(std::move(processes), std::move(adversary), config, 9);

  FaultConfig fc;
  fc.scripted_crashes = {{3, 1}};
  engine.setFaultInjector(injectorFor(n, fc, 9));

  const sim::RunResult result = engine.run();
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(result.restarts, 0u);
  // Nodes 1 and 2 got the token on the clique; crashed node 3 never did.
  for (sim::NodeId v = 0; v < 3; ++v) {
    EXPECT_TRUE(static_cast<const proto::FloodProcess&>(engine.process(v))
                    .hasToken());
  }
  EXPECT_FALSE(static_cast<const proto::FloodProcess&>(engine.process(3))
                   .hasToken());
  // The crashed node never reached done(), yet the run counts as all-done.
  EXPECT_TRUE(result.all_done);
}

TEST(EngineFaults, RestartResetsStateAndCounts) {
  const sim::NodeId n = 3;
  RoundCounterFactory factory;
  std::vector<std::unique_ptr<sim::Process>> processes;
  for (sim::NodeId v = 0; v < n; ++v) {
    processes.push_back(factory.create(v, n));
  }
  auto adversary = std::make_unique<adv::StaticAdversary>(net::makeClique(n));
  sim::Engine engine(std::move(processes), std::move(adversary),
                     runForever(10), 1);

  FaultConfig fc;
  fc.scripted_crashes = {{1, 3}};
  fc.scripted_restarts = {{1, 6}};
  engine.setFaultInjector(injectorFor(n, fc, 1, &factory));

  const sim::RunResult result = engine.run();
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_EQ(result.rounds_executed, 10);
  // Node 1 was down rounds 3-5 and came back with FRESH state at round 6:
  // the replacement process saw only rounds 6..10.
  EXPECT_EQ(
      static_cast<const RoundCounter&>(engine.process(0)).roundsSeen(), 10);
  EXPECT_EQ(
      static_cast<const RoundCounter&>(engine.process(1)).roundsSeen(), 5);
  EXPECT_EQ(
      static_cast<const RoundCounter&>(engine.process(2)).roundsSeen(), 10);
}

TEST(EngineFaults, DropsAreCountedAndWithheld) {
  std::vector<std::unique_ptr<sim::Process>> processes;
  processes.push_back(std::make_unique<AlwaysSend>(0x3u, 8));
  processes.push_back(std::make_unique<Recorder>());
  auto adversary = std::make_unique<adv::StaticAdversary>(net::makePath(2));
  sim::Engine engine(std::move(processes), std::move(adversary), runForever(5),
                     2);
  FaultConfig fc;
  fc.drop_prob = 1.0;
  engine.setFaultInjector(injectorFor(2, fc, 2));

  const sim::RunResult result = engine.run();
  EXPECT_EQ(result.messages_dropped, 5u);
  EXPECT_EQ(result.messages_corrupted, 0u);
  EXPECT_EQ(result.messages_sent, 5u);  // sends still happened and count
  EXPECT_TRUE(
      static_cast<const Recorder&>(engine.process(1)).received().empty());
}

TEST(EngineFaults, CorruptionDeliversMangledPayload) {
  const sim::Message original = sim::MessageBuilder().put(0xABCu, 16).build();
  std::vector<std::unique_ptr<sim::Process>> processes;
  processes.push_back(std::make_unique<AlwaysSend>(0xABCu, 16));
  processes.push_back(std::make_unique<Recorder>());
  auto adversary = std::make_unique<adv::StaticAdversary>(net::makePath(2));
  sim::Engine engine(std::move(processes), std::move(adversary), runForever(6),
                     3);
  FaultConfig fc;
  fc.corrupt_prob = 1.0;
  fc.deliver_corrupted = true;
  engine.setFaultInjector(injectorFor(2, fc, 3));

  const sim::RunResult result = engine.run();
  EXPECT_EQ(result.messages_corrupted, 6u);
  EXPECT_EQ(result.messages_dropped, 0u);
  const auto& received =
      static_cast<const Recorder&>(engine.process(1)).received();
  ASSERT_EQ(received.size(), 6u);
  for (const sim::Message& m : received) {
    EXPECT_NE(m, original) << "corrupted delivery arrived unmangled";
    EXPECT_EQ(m.bitSize(), original.bitSize());
    // Exactly one flipped bit: flipping it back must restore the original.
    bool restorable = false;
    for (int bit = 0; bit < m.bitSize(); ++bit) {
      if (m.withBitFlipped(bit) == original) {
        restorable = true;
        break;
      }
    }
    EXPECT_TRUE(restorable);
  }
}

TEST(EngineFaults, CorruptionDetectAndDropMode) {
  std::vector<std::unique_ptr<sim::Process>> processes;
  processes.push_back(std::make_unique<AlwaysSend>(0xABCu, 16));
  processes.push_back(std::make_unique<Recorder>());
  auto adversary = std::make_unique<adv::StaticAdversary>(net::makePath(2));
  sim::Engine engine(std::move(processes), std::move(adversary), runForever(6),
                     3);
  FaultConfig fc;
  fc.corrupt_prob = 1.0;
  fc.deliver_corrupted = false;  // link-layer CRC drops them
  engine.setFaultInjector(injectorFor(2, fc, 3));

  const sim::RunResult result = engine.run();
  EXPECT_EQ(result.messages_corrupted, 6u);
  EXPECT_EQ(result.messages_dropped, 0u);
  EXPECT_TRUE(
      static_cast<const Recorder&>(engine.process(1)).received().empty());
}

TEST(EngineFaults, FramedProcessShieldsInnerFromCorruption) {
  std::vector<std::unique_ptr<sim::Process>> processes;
  processes.push_back(std::make_unique<proto::FramedProcess>(
      std::make_unique<AlwaysSend>(0x7Eu, 8)));
  processes.push_back(std::make_unique<proto::FramedProcess>(
      std::make_unique<Recorder>()));
  auto adversary = std::make_unique<adv::StaticAdversary>(net::makePath(2));
  sim::Engine engine(std::move(processes), std::move(adversary), runForever(6),
                     4);
  FaultConfig fc;
  fc.corrupt_prob = 1.0;
  fc.deliver_corrupted = true;  // mangled frames reach the receiver
  engine.setFaultInjector(injectorFor(2, fc, 4));

  engine.run();
  const auto& framed =
      static_cast<const proto::FramedProcess&>(engine.process(1));
  EXPECT_EQ(framed.framesRejected(), 6);
  EXPECT_TRUE(static_cast<const Recorder&>(framed.inner()).received().empty());
}

// ---------------------------------------------------------------------------
// All-zero plan regression: attaching a zero-fault injector must reproduce
// the clean engine byte for byte (an ISSUE acceptance criterion).

void expectIdenticalRuns(const sim::RunResult& clean,
                         const sim::RunResult& zero_plan) {
  EXPECT_EQ(clean.rounds_executed, zero_plan.rounds_executed);
  EXPECT_EQ(clean.all_done, zero_plan.all_done);
  EXPECT_EQ(clean.all_done_round, zero_plan.all_done_round);
  EXPECT_EQ(clean.done_round, zero_plan.done_round);
  EXPECT_EQ(clean.messages_sent, zero_plan.messages_sent);
  EXPECT_EQ(clean.bits_sent, zero_plan.bits_sent);
  EXPECT_EQ(clean.bits_per_node, zero_plan.bits_per_node);
  EXPECT_EQ(zero_plan.crashes, 0u);
  EXPECT_EQ(zero_plan.restarts, 0u);
  EXPECT_EQ(zero_plan.messages_dropped, 0u);
  EXPECT_EQ(zero_plan.messages_corrupted, 0u);
}

TEST(ZeroPlanRegression, RandomizedFloodIsByteIdentical) {
  const sim::NodeId n = 16;
  const std::uint64_t seed = 77;
  proto::FloodFactory factory(0, 0x9, 4, proto::FloodMode::kRandomized,
                              /*halt_round=*/40);
  auto build = [&](bool with_injector) {
    std::vector<std::unique_ptr<sim::Process>> processes;
    for (sim::NodeId v = 0; v < n; ++v) {
      processes.push_back(factory.create(v, n));
    }
    auto adversary =
        std::make_unique<adv::RandomGraphAdversary>(n, 0.15, /*seed=*/5);
    sim::EngineConfig config;
    config.max_rounds = 60;
    auto engine = std::make_unique<sim::Engine>(
        std::move(processes), std::move(adversary), config, seed);
    if (with_injector) {
      engine->setFaultInjector(injectorFor(n, FaultConfig{}, 123));
    }
    return engine;
  };
  auto clean = build(false);
  auto zero = build(true);
  expectIdenticalRuns(clean->run(), zero->run());
  for (sim::NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(clean->process(v).stateDigest(), zero->process(v).stateDigest());
  }
}

TEST(ZeroPlanRegression, LeaderElectionIsByteIdentical) {
  const sim::NodeId n = 12;
  const std::uint64_t seed = 31;
  proto::LeaderConfig config;
  config.n_estimate = n;
  proto::LeaderElectFactory factory(config, /*seed=*/99);
  auto build = [&](bool with_injector) {
    std::vector<std::unique_ptr<sim::Process>> processes;
    for (sim::NodeId v = 0; v < n; ++v) {
      processes.push_back(factory.create(v, n));
    }
    auto adversary =
        std::make_unique<adv::RandomGraphAdversary>(n, 0.3, /*seed=*/6);
    sim::EngineConfig engine_config;
    engine_config.max_rounds = 30000;
    auto engine = std::make_unique<sim::Engine>(
        std::move(processes), std::move(adversary), engine_config, seed);
    if (with_injector) {
      engine->setFaultInjector(injectorFor(n, FaultConfig{}, 123));
    }
    return engine;
  };
  auto clean = build(false);
  auto zero = build(true);
  const sim::RunResult clean_result = clean->run();
  expectIdenticalRuns(clean_result, zero->run());
  EXPECT_TRUE(clean_result.all_done);
  for (sim::NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(clean->process(v).stateDigest(), zero->process(v).stateDigest());
  }
}

// A node restarted mid-run must behave byte-identically on the
// incremental-topology fast path and on the full-rebuild reference path:
// restart re-creates process state while the adversary keeps patching the
// previous round's graph, which is exactly where the two paths could
// drift.  The fuzz-diff harness sweeps the same comparison (the adversary
// bare and wrapped in sim::RebuildEveryRound); this pins it on a scripted
// restart so the coverage does not depend on the fuzzer's dice.
TEST(RestartRegression, RestartMidRunMatchesRebuildPathExactly) {
  const sim::NodeId n = 10;
  const std::uint64_t seed = 2026;
  proto::FloodFactory factory(0, 0x33, 6, proto::FloodMode::kRandomized,
                              /*halt_round=*/0);
  FaultConfig fc;
  fc.scripted_crashes = {{4, 3}, {7, 5}};
  fc.scripted_restarts = {{4, 7}, {7, 9}};
  auto run = [&](bool deltas) {
    // Dense random graphs: the live subgraph stays connected through both
    // crash windows (seed-pinned, so this holds deterministically).
    std::unique_ptr<sim::Adversary> adversary =
        std::make_unique<adv::RandomGraphAdversary>(n, 0.5, 11);
    if (!deltas) {
      adversary =
          std::make_unique<sim::RebuildEveryRound>(std::move(adversary));
    }
    sim::EngineConfig config;
    config.max_rounds = 20;
    config.stop_when_all_done = false;
    config.record_actions = true;
    config.record_topologies = true;
    auto engine = std::make_unique<sim::Engine>(
        sim::createProcesses(factory, n), std::move(adversary), config, seed);
    engine->setFaultInjector(injectorFor(n, fc, 55, &factory));
    engine->run();
    return engine;
  };
  const auto reference = run(/*deltas=*/false);
  const sim::RunResult& want = reference->result();
  EXPECT_EQ(want.crashes, 2u);
  EXPECT_EQ(want.restarts, 2u);
  const auto engine = run(/*deltas=*/true);
  const sim::RunResult& got = engine->result();
  EXPECT_EQ(got.rounds_executed, want.rounds_executed);
  EXPECT_EQ(got.done_round, want.done_round);
  EXPECT_EQ(got.messages_sent, want.messages_sent);
  EXPECT_EQ(got.bits_sent, want.bits_sent);
  EXPECT_EQ(got.bits_per_node, want.bits_per_node);
  EXPECT_EQ(got.bits_per_round, want.bits_per_round);
  EXPECT_EQ(got.crashes, want.crashes);
  EXPECT_EQ(got.restarts, want.restarts);
  for (sim::NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(engine->process(v).stateDigest(),
              reference->process(v).stateDigest())
        << "node " << v;
  }
  std::ostringstream want_trace;
  sim::writeTrace(want_trace, sim::traceFromEngine(*reference));
  std::ostringstream got_trace;
  sim::writeTrace(got_trace, sim::traceFromEngine(*engine));
  EXPECT_EQ(got_trace.str(), want_trace.str());
}

// ---------------------------------------------------------------------------
// Relaxed connectivity invariant.

TEST(RelaxedConnectivity, LiveSubgraphMustStayConnected) {
  // Path 0-1-2 with the middle node crashed: live nodes {0,2} are severed,
  // so the relaxed invariant still (rightly) fails.
  std::vector<std::unique_ptr<sim::Process>> processes;
  for (int i = 0; i < 3; ++i) {
    processes.push_back(std::make_unique<RoundCounter>());
  }
  auto adversary = std::make_unique<adv::StaticAdversary>(net::makePath(3));
  sim::Engine engine(std::move(processes), std::move(adversary), runForever(5),
                     1);
  FaultConfig fc;
  fc.scripted_crashes = {{1, 1}};
  engine.setFaultInjector(injectorFor(3, fc, 1));
  EXPECT_THROW(engine.step(), util::CheckError);
}

TEST(RelaxedConnectivity, DisconnectedDeadNodeIsTolerated) {
  // Edge 0-1 plus an isolated node 2: the full graph is disconnected, but
  // once node 2 crashes the live subgraph {0,1} is connected, so the
  // relaxed invariant accepts it.
  auto graph = std::make_shared<net::Graph>(
      3, std::vector<net::Edge>{{0, 1}});
  ASSERT_FALSE(graph->connected());
  std::vector<std::unique_ptr<sim::Process>> processes;
  for (int i = 0; i < 3; ++i) {
    processes.push_back(std::make_unique<RoundCounter>());
  }
  auto adversary = std::make_unique<RawStaticAdversary>(graph);
  sim::Engine engine(std::move(processes), std::move(adversary), runForever(5),
                     1);
  FaultConfig fc;
  fc.scripted_crashes = {{2, 1}};
  engine.setFaultInjector(injectorFor(3, fc, 1));
  EXPECT_NO_THROW(engine.run());
}

// ---------------------------------------------------------------------------
// ResilientFlood.

TEST(ResilientFlood, CompletesOnCleanCliqueAndQuiesces) {
  const sim::NodeId n = 8;
  proto::ResilientFloodConfig config;
  proto::ResilientFloodFactory factory(config);
  std::vector<std::unique_ptr<sim::Process>> processes;
  for (sim::NodeId v = 0; v < n; ++v) {
    processes.push_back(factory.create(v, n));
  }
  auto adversary = std::make_unique<adv::StaticAdversary>(net::makeClique(n));
  sim::EngineConfig engine_config;
  engine_config.max_rounds = 500;
  sim::Engine engine(std::move(processes), std::move(adversary), engine_config,
                     21);
  const sim::RunResult result = engine.run();
  EXPECT_TRUE(result.all_done);
  for (sim::NodeId v = 0; v < n; ++v) {
    const auto& p =
        static_cast<const proto::ResilientFloodProcess&>(engine.process(v));
    EXPECT_TRUE(p.hasToken());
    EXPECT_TRUE(p.done());
  }
}

TEST(ResilientFlood, SurvivesTenPercentDropAtN64) {
  const sim::NodeId n = 64;
  const sim::TrialSummary summary = sim::BatchRunner().run(
      30, /*base_seed=*/0xF100D,
      [&](std::uint64_t seed, sim::TrialRecorder& rec) {
        proto::ResilientFloodConfig config;
        proto::ResilientFloodFactory factory(config);
        std::vector<std::unique_ptr<sim::Process>> processes;
        for (sim::NodeId v = 0; v < n; ++v) {
          processes.push_back(factory.create(v, n));
        }
        auto adversary = std::make_unique<adv::RandomGraphAdversary>(
            n, 0.1, util::hashCombine(seed, 1));
        sim::EngineConfig engine_config;
        engine_config.max_rounds = 3000;
        sim::Engine engine(std::move(processes), std::move(adversary),
                           engine_config, seed);
        FaultConfig fc;
        fc.drop_prob = 0.1;
        engine.setFaultInjector(injectorFor(n, fc, seed));
        const sim::RunResult result = engine.run();
        bool all_tokens = true;
        for (sim::NodeId v = 0; v < n; ++v) {
          all_tokens = all_tokens &&
                       static_cast<const proto::ResilientFloodProcess&>(
                           engine.process(v))
                           .hasToken();
        }
        rec.set("success", (result.all_done && all_tokens) ? 1.0 : 0.0);
        rec.set("rounds", static_cast<double>(result.rounds_executed));
        rec.set("dropped", static_cast<double>(result.messages_dropped));
      });
  // ISSUE acceptance: >= 99% trial success at 10% per-delivery drop.
  EXPECT_GE(summary.metrics.at("success").mean(), 0.99);
  EXPECT_GT(summary.metrics.at("dropped").min(), 0.0);
}

TEST(ResilientFlood, SurvivesCrashesDropsAndCorruption) {
  const sim::NodeId n = 32;
  const sim::TrialSummary summary = sim::BatchRunner().run(
      10, /*base_seed=*/0xC4A5,
      [&](std::uint64_t seed, sim::TrialRecorder& rec) {
        proto::ResilientFloodConfig config;
        proto::ResilientFloodFactory factory(config);
        std::vector<std::unique_ptr<sim::Process>> processes;
        for (sim::NodeId v = 0; v < n; ++v) {
          processes.push_back(factory.create(v, n));
        }
        auto adversary = std::make_unique<adv::RandomGraphAdversary>(
            n, 0.3, util::hashCombine(seed, 1));
        sim::EngineConfig engine_config;
        engine_config.max_rounds = 3000;
        sim::Engine engine(std::move(processes), std::move(adversary),
                           engine_config, seed);
        FaultConfig fc;
        fc.crash_fraction = 0.1;
        fc.crash_window = 10;
        fc.drop_prob = 0.05;
        fc.corrupt_prob = 0.05;
        fc.deliver_corrupted = true;
        FaultPlan plan(n, fc, seed);
        // The source must survive or no trial can spread the token.
        if (plan.crashRound(config.source) != 0) {
          rec.set("success", 1.0);
          rec.set("skipped", 1.0);
          return;
        }
        auto injector =
            std::make_shared<const FaultInjector>(std::move(plan), &factory);
        engine.setFaultInjector(injector);
        bool ok = true;
        try {
          const sim::RunResult result = engine.run();
          ok = result.all_done;
          for (sim::NodeId v = 0; v < n; ++v) {
            if (injector->isCrashed(v, engine.currentRound())) {
              continue;  // crashed nodes owe nothing
            }
            ok = ok && static_cast<const proto::ResilientFloodProcess&>(
                           engine.process(v))
                           .hasToken();
          }
        } catch (const util::CheckError&) {
          ok = false;  // live subgraph disconnected: a failed trial
        }
        rec.set("success", ok ? 1.0 : 0.0);
        rec.set("skipped", 0.0);
      });
  EXPECT_GE(summary.metrics.at("success").mean(), 0.9);
}

// ---------------------------------------------------------------------------
// Robust leader election wrapper.

TEST(RobustLeader, FaultFreeTrialSucceeds) {
  proto::LeaderConfig config;
  config.n_estimate = 16;
  const proto::RobustLeaderOutcome outcome = proto::runRobustLeaderElection(
      config, std::make_unique<adv::RandomGraphAdversary>(16, 0.3, 44),
      FaultConfig{}, /*max_rounds=*/40000, /*seed=*/44);
  EXPECT_FALSE(outcome.model_violation);
  EXPECT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.leader_live);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.live_fraction, 1.0);
  EXPECT_EQ(outcome.run.messages_dropped, 0u);
  EXPECT_EQ(outcome.run.crashes, 0u);
}

TEST(RobustLeader, DegradesGracefullyUnderFaults) {
  proto::LeaderConfig config;
  config.n_estimate = 16;
  FaultConfig fc;
  fc.drop_prob = 0.02;
  fc.corrupt_prob = 0.02;
  fc.deliver_corrupted = true;
  fc.crash_fraction = 0.1;
  fc.crash_window = 50;
  int successes = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const proto::RobustLeaderOutcome outcome = proto::runRobustLeaderElection(
        config, std::make_unique<adv::RandomGraphAdversary>(16, 0.3, seed),
        fc, /*max_rounds=*/40000, seed);
    // Never throws, never asserts: outcomes are evaluated, and the flags
    // stay mutually consistent.
    EXPECT_EQ(outcome.success, outcome.completed && outcome.agreement &&
                                   outcome.leader_live);
    if (!outcome.model_violation) {
      EXPECT_LE(outcome.live_fraction, 1.0);
      EXPECT_GT(outcome.run.rounds_executed, 0);
    }
    successes += outcome.success ? 1 : 0;
  }
  SUCCEED() << successes << "/3 faulty trials elected a live leader";
}

}  // namespace
}  // namespace dynet
