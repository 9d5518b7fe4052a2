// Structure-of-arrays state store: differential pins against the object
// path.
//
// Four layers of evidence that the SoA path (the factory constructor over a
// protocol with an SoA model) changes HOW the engine executes a round,
// never WHAT it computes.  The reference is the object path: the same
// factory through sim::createProcesses and the process-vector constructor.
//
//   * per-round lockstep: object and SoA engines stepped side by side must
//     agree on every node's stateDigest / done / output after EVERY round,
//     across the protocol x adversary grid — a much tighter pin than
//     end-of-run equality (a transient divergence that happens to
//     re-converge would still fail here);
//   * crash masks: the same lockstep under crash + restart fault plans,
//     so faultPhase's liveness bookkeeping (including SoAModel::resetNode
//     on restart) is compared round by round, plus full fault accounting;
//   * fast path: the no-liveness-fault faultPhase skip (zero plans and
//     drop/corrupt-only plans) must be byte-identical to the general path;
//   * delivery direction: fault-free rounds push or pull by the
//     work rule of sim/soa_exec.h, on schedules with rounds on both sides
//     of it and on its tie, and soa//pull_rounds counts the pulled rounds
//     exactly; faulty rounds never take the push walk;
//   * node-range chunks: the same lockstep past two chunks' worth of
//     nodes, clean, faulty and with a sink, the first error of a chunked
//     walk, and chunked engines stepping on pool workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/dynamic_adversaries.h"
#include "adversary/static_adversaries.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "net/graph.h"
#include "obs/sink.h"
#include "protocols/flood.h"
#include "protocols/max_flood.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "sim/soa_exec.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace dynet::sim {
namespace {

std::unique_ptr<ProcessFactory> makeProtocol(int kind, NodeId n,
                                             Round rounds) {
  switch (kind) {
    case 0:
      return std::make_unique<proto::FloodFactory>(
          0, 0x2a, 8, proto::FloodMode::kDeterministic, rounds / 2);
    case 1:
      return std::make_unique<proto::FloodFactory>(
          0, 0x2a, 8, proto::FloodMode::kRandomized, rounds / 2);
    default: {
      std::vector<std::uint64_t> values;
      for (NodeId v = 0; v < n; ++v) {
        values.push_back(static_cast<std::uint64_t>((v * 37 + 11) % 100));
      }
      return std::make_unique<proto::MaxFloodFactory>(std::move(values), 8,
                                                      rounds);
    }
  }
}

/// Protocols with an SoA model: 0 flood (deterministic), 1 flood
/// (randomized), 2 max_flood.
constexpr int kProtocols = 3;

std::unique_ptr<Adversary> makeAdversary(int kind, NodeId n,
                                         std::uint64_t seed) {
  switch (kind) {
    case 0:
      return std::make_unique<adv::RotatingStarAdversary>(n);
    case 1:
      return std::make_unique<adv::EdgeChurnAdversary>(n, 2, seed);
    case 2:
      return std::make_unique<adv::RandomGraphAdversary>(n, 0.4, seed);
    default:
      return std::make_unique<adv::StaticAdversary>(net::makeRing(n));
  }
}

void expectSameResult(const RunResult& a, const RunResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.rounds_executed, b.rounds_executed) << what;
  EXPECT_EQ(a.all_done, b.all_done) << what;
  EXPECT_EQ(a.all_done_round, b.all_done_round) << what;
  EXPECT_EQ(a.done_round, b.done_round) << what;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << what;
  EXPECT_EQ(a.bits_sent, b.bits_sent) << what;
  EXPECT_EQ(a.bits_per_node, b.bits_per_node) << what;
  EXPECT_EQ(a.max_bits_per_node, b.max_bits_per_node) << what;
  EXPECT_EQ(a.bits_per_round, b.bits_per_round) << what;
  EXPECT_EQ(a.crashes, b.crashes) << what;
  EXPECT_EQ(a.restarts, b.restarts) << what;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << what;
  EXPECT_EQ(a.messages_corrupted, b.messages_corrupted) << what;
}

/// Rounds of a run classified by the direction rule of sim/soa_exec.h,
/// restated here as the plain product: (2|S| - n)(n + 2m) against n^2.
struct DirectionTally {
  int push = 0;  // product below n^2
  int tie = 0;   // product equal to n^2 (the rule pushes)
  int pull = 0;  // product above n^2
};

/// Classifies the round `engine` (recording actions and topologies) just
/// stepped.
void tallyDirection(const Engine& engine, DirectionTally& tally) {
  const std::vector<Action>& actions = engine.actionTrace().back();
  const auto n = static_cast<std::int64_t>(actions.size());
  const auto senders = static_cast<std::int64_t>(std::count_if(
      actions.begin(), actions.end(), [](const Action& a) { return a.send; }));
  const auto m =
      static_cast<std::int64_t>(engine.topologies().back()->numEdges());
  const std::int64_t work = (2 * senders - n) * (n + 2 * m);
  ++(work > n * n ? tally.pull : work == n * n ? tally.tie : tally.push);
}

struct LockstepSpec {
  NodeId n = 14;
  Round rounds = 40;
  int protocol = 0;
  int adversary = 0;
  std::uint64_t seed = 0;
  const faults::FaultConfig* fc = nullptr;
  /// Attached to the SoA engine, whose metrics are finalized after the
  /// last round.
  obs::MetricsSink* soa_sink = nullptr;
  /// Attached to the object engine, finalized likewise.
  obs::MetricsSink* object_sink = nullptr;
  /// Filled with every round's direction-rule class.
  DirectionTally* directions = nullptr;
};

/// Steps an object engine and an SoA engine through the same run, failing
/// on the first round where any node's digest / done / output diverges.
void runLockstep(const LockstepSpec& s) {
  const std::unique_ptr<ProcessFactory> factory =
      makeProtocol(s.protocol, s.n, s.rounds);
  EngineConfig object_cfg;
  object_cfg.max_rounds = s.rounds;
  object_cfg.stop_when_all_done = false;
  object_cfg.check_connectivity = false;
  EngineConfig soa_cfg = object_cfg;
  soa_cfg.metrics = s.soa_sink;
  object_cfg.metrics = s.object_sink;
  object_cfg.record_actions = s.directions != nullptr;
  object_cfg.record_topologies = s.directions != nullptr;

  Engine object_engine(createProcesses(*factory, s.n),
                       makeAdversary(s.adversary, s.n, s.seed), object_cfg,
                       s.seed);
  Engine soa_engine(*factory, makeAdversary(s.adversary, s.n, s.seed),
                    soa_cfg, s.seed);
  ASSERT_FALSE(object_engine.soaActive());
  ASSERT_TRUE(soa_engine.soaActive())
      << "protocol " << s.protocol << " lacks an SoA model";
  if (s.fc != nullptr) {
    const faults::FaultPlan plan(s.n, *s.fc, s.seed ^ 0xFA);
    object_engine.setFaultInjector(
        std::make_shared<const faults::FaultInjector>(plan, factory.get()));
    soa_engine.setFaultInjector(
        std::make_shared<const faults::FaultInjector>(plan, factory.get()));
  }
  for (Round r = 1; r <= s.rounds; ++r) {
    ASSERT_TRUE(object_engine.step());
    ASSERT_TRUE(soa_engine.step());
    for (NodeId v = 0; v < s.n; ++v) {
      ASSERT_EQ(object_engine.stateDigest(v), soa_engine.stateDigest(v))
          << "round " << r << " node " << v << " protocol " << s.protocol
          << " adversary " << s.adversary << " seed " << s.seed;
      ASSERT_EQ(object_engine.nodeDone(v), soa_engine.nodeDone(v))
          << "round " << r << " node " << v;
      ASSERT_EQ(object_engine.nodeOutput(v), soa_engine.nodeOutput(v))
          << "round " << r << " node " << v;
    }
    ASSERT_EQ(object_engine.allDone(), soa_engine.allDone()) << "round " << r;
    if (s.directions != nullptr) {
      tallyDirection(object_engine, *s.directions);
    }
  }
  if (s.soa_sink != nullptr) {
    soa_engine.finalizeMetrics();
  }
  if (s.object_sink != nullptr) {
    object_engine.finalizeMetrics();
  }
  expectSameResult(object_engine.result(), soa_engine.result(),
                   "protocol " + std::to_string(s.protocol) + " adversary " +
                       std::to_string(s.adversary));
}

TEST(SoAState, PerRoundDigestLockstepAcrossProtocolsAndAdversaries) {
  for (int protocol = 0; protocol < kProtocols; ++protocol) {
    for (int adversary = 0; adversary < 3; ++adversary) {
      for (std::uint64_t seed : {0x51ull, 0x52ull}) {
        LockstepSpec s;
        s.protocol = protocol;
        s.adversary = adversary;
        s.seed = seed;
        runLockstep(s);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

/// Crash/restart plus drop/corrupt faults.  MaxFlood decodes arbitrary
/// payloads, so mangled deliveries may arrive.
faults::FaultConfig crashAndCorruptPlan() {
  faults::FaultConfig fc;
  fc.crash_fraction = 0.3;
  fc.crash_window = 16;
  fc.restart = true;
  fc.restart_downtime = 6;
  fc.drop_prob = 0.15;
  fc.corrupt_prob = 0.1;
  fc.deliver_corrupted = true;
  return fc;
}

TEST(SoAState, CrashMasksConsistentUnderFaultPlans) {
  const faults::FaultConfig fc = crashAndCorruptPlan();
  for (int adversary = 0; adversary < 3; ++adversary) {
    for (std::uint64_t seed : {0x61ull, 0x62ull, 0x63ull}) {
      LockstepSpec s;
      s.protocol = 2;  // max_flood
      s.adversary = adversary;
      s.seed = seed;
      s.fc = &fc;
      runLockstep(s);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  // Flood under crash/restart (but pristine payloads: FloodProcess rejects
  // foreign tokens): locksteps FloodSoA::resetNode, which hands the source
  // back its token and every other node its token-less round-0 state, in
  // both flood modes.
  faults::FaultConfig crash_only = fc;
  crash_only.drop_prob = 0;
  crash_only.corrupt_prob = 0;
  crash_only.deliver_corrupted = false;
  for (const int protocol : {0, 1}) {
    LockstepSpec s;
    s.protocol = protocol;
    s.adversary = 1;
    s.seed = 0x64;
    s.fc = &crash_only;
    runLockstep(s);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Satellite pin: faultPhase skips the per-trial liveness-mask re-init when
// the plan cannot affect liveness.  A zero plan and a drop/corrupt-only
// plan must both stay byte-identical to the general path — and the zero
// plan must match a run with no injector at all.
TEST(SoAState, NoLivenessFaultPlansAreByteIdentical) {
  const NodeId n = 14;
  const Round rounds = 40;
  const std::unique_ptr<ProcessFactory> factory = makeProtocol(2, n, rounds);
  const auto run = [&](const faults::FaultConfig* fc, bool soa) {
    EngineConfig cfg;
    cfg.max_rounds = rounds;
    cfg.stop_when_all_done = false;
    cfg.check_connectivity = false;
    Engine engine = soa ? Engine(*factory, makeAdversary(1, n, 0x71), cfg, 0x71)
                        : Engine(createProcesses(*factory, n),
                                 makeAdversary(1, n, 0x71), cfg, 0x71);
    if (fc != nullptr) {
      engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
          faults::FaultPlan(n, *fc, 0x71 ^ 0xFA), factory.get()));
    }
    RunResult result = engine.run();
    std::vector<std::uint64_t> digests;
    for (NodeId v = 0; v < n; ++v) {
      digests.push_back(engine.stateDigest(v));
    }
    return std::make_pair(std::move(result), std::move(digests));
  };

  const faults::FaultConfig zero_plan;  // all-zero: no faults at all
  faults::FaultConfig drop_only;
  drop_only.drop_prob = 0.2;
  drop_only.corrupt_prob = 0.1;
  drop_only.deliver_corrupted = true;

  const auto clean = run(nullptr, true);
  for (const bool soa : {false, true}) {
    const auto zero = run(&zero_plan, soa);
    expectSameResult(clean.first, zero.first, "zero plan soa=" +
                                                  std::to_string(soa));
    EXPECT_EQ(clean.second, zero.second) << "zero plan soa=" << soa;
  }
  // Drop-only plans take the mask-skip path yet still drop messages; the
  // object and SoA engines must agree exactly.
  const auto drop_object = run(&drop_only, false);
  const auto drop_soa = run(&drop_only, true);
  expectSameResult(drop_object.first, drop_soa.first, "drop-only plan");
  EXPECT_EQ(drop_object.second, drop_soa.second) << "drop-only plan";
  EXPECT_GT(drop_soa.first.messages_dropped, 0u)
      << "drop-only plan dropped nothing — the regression pin is vacuous";
}

// ------------------------------------------- direction-optimizing delivery

TEST(SoAState, PullWalkRuleAndTie) {
  // A ring has m = n, so (2|S| - n) * 3n > n^2 iff |S| > 2n/3.
  EXPECT_FALSE(pullWalkWins(6, 3, 6));
  EXPECT_FALSE(pullWalkWins(6, 4, 6));  // the tie: 2 * 18 == 36
  EXPECT_TRUE(pullWalkWins(6, 5, 6));
  EXPECT_TRUE(pullWalkWins(6, 6, 6));
  EXPECT_FALSE(pullWalkWins(12, 8, 12));  // tie
  EXPECT_TRUE(pullWalkWins(12, 9, 12));
  // Without a sender majority pull never wins, however dense the graph.
  EXPECT_FALSE(pullWalkWins(100, 50, 4950));
  EXPECT_TRUE(pullWalkWins(100, 51, 4950));
  // An edgeless graph never pulls: every node sending is a tie.
  EXPECT_FALSE(pullWalkWins(1, 1, 0));
  EXPECT_FALSE(pullWalkWins(4, 3, 0));
  EXPECT_FALSE(pullWalkWins(4, 4, 0));
  // (2|S| - n)(n + 2m) = 2^31 (2^31 + 2^41) wraps to exactly n^2 = 2^62 in
  // 64 bits; the rule must still see pull win.
  const std::uint64_t n = std::uint64_t{1} << 31;
  EXPECT_TRUE(pullWalkWins(n, n, std::uint64_t{1} << 40));
  EXPECT_FALSE(pullWalkWins(n, n / 2 + 1, std::uint64_t{1} << 40));
}

// Fault-free SoA delivery pushes or pulls each round by the work rule.  On rings of n = 12 the rule's tie sits at exactly |S| = 8;
// the dense random graphs pull just past a sender majority; edge churn
// lies between.  Coin-flipping senders (and flood's growing frontier) put
// rounds on both sides and on the tie.  Each run is a per-round digest
// lockstep against the object path, and soa//pull_rounds must count
// exactly the rounds the rule sends to pull — ties push.
TEST(SoAState, DirectionOptimizingDeliveryMatchesObjectPath) {
  DirectionTally all;
  for (int protocol = 0; protocol < kProtocols; ++protocol) {
    DirectionTally seen;
    for (const int adversary : {3, 1, 2}) {
      for (const std::uint64_t seed : {0x91ull, 0x92ull}) {
        obs::MetricsSink sink;
        DirectionTally tally;
        LockstepSpec s;
        s.n = 12;
        s.rounds = 48;
        s.protocol = protocol;
        s.adversary = adversary;
        s.seed = seed;
        s.soa_sink = &sink;
        s.directions = &tally;
        runLockstep(s);
        if (HasFatalFailure()) {
          return;
        }
        EXPECT_DOUBLE_EQ(sink.registry.gauge("soa//pull_rounds")->value,
                         tally.pull)
            << "protocol " << protocol << " adversary " << adversary
            << " seed " << seed;
        seen.push += tally.push;
        seen.tie += tally.tie;
        seen.pull += tally.pull;
      }
    }
    EXPECT_GT(seen.push, 0) << "protocol " << protocol;
    EXPECT_GT(seen.pull, 0) << "protocol " << protocol;
    all.tie += seen.tie;
  }
  EXPECT_GT(all.tie, 0) << "no round landed on the rule's tie";
}

// Faulty rounds always take the receiver-major walk, which draws every
// drop fate: a drop-only plan on schedules whose fault-free twins both
// push and pull must never enter the direction choice (pull_rounds stays
// 0, so the push walk, reachable only there, never ran) and must still
// match the object path's drops exactly.
TEST(SoAState, DropOnlyPlanNeverTakesThePushWalk) {
  faults::FaultConfig drop_only;
  drop_only.drop_prob = 0.2;
  for (const int adversary : {3, 1}) {
    obs::MetricsSink sink;
    DirectionTally tally;
    LockstepSpec s;
    s.n = 12;
    s.rounds = 48;
    s.protocol = 2;  // max_flood
    s.adversary = adversary;
    s.seed = 0x93;
    s.fc = &drop_only;
    s.soa_sink = &sink;
    s.directions = &tally;
    runLockstep(s);
    if (HasFatalFailure()) {
      return;
    }
    EXPECT_GT(tally.push + tally.tie, 0) << "adversary " << adversary;
    EXPECT_GT(tally.pull, 0) << "adversary " << adversary;
    EXPECT_DOUBLE_EQ(sink.registry.gauge("soa//pull_rounds")->value, 0.0)
        << "adversary " << adversary;
    EXPECT_GT(sink.registry.counter("faults/messages_dropped")->value, 0u)
        << "adversary " << adversary;
  }
}

// ------------------------------------------------------- node-range chunks

/// Three chunks' worth of nodes and a ragged last chunk: k = min(pool
/// workers, 3) chunks, so DYNET_THREADS=1 runs the same tests serially.
constexpr NodeId kChunkedN = 3 * kNodesPerChunk + 37;

/// The metrics JSON of a sink without the soa// execution-shape gauges,
/// the only lines allowed to differ between the object and SoA paths.
std::string withoutShapeGauges(const obs::MetricsSink& sink) {
  std::istringstream json(sink.registry.toJson());
  std::string out;
  for (std::string line; std::getline(json, line);) {
    if (line.find("\"soa//") == std::string::npos) {
      out += line + "\n";
    }
  }
  return out;
}

// The per-round lockstep past two chunks' worth of nodes, for every SoA
// model over edge churn, the static ring and the rotating star: fault-free,
// under crash/restart plus drop/corrupt faults, and with sinks on both
// engines, whose metrics must agree except for soa//.
TEST(SoAState, NodeRangeChunksLockstepAtLargeN) {
  const faults::FaultConfig plan = crashAndCorruptPlan();
  // FloodProcess rejects foreign tokens: flood's corrupted copies are
  // caught by the link-layer CRC instead of delivered.
  faults::FaultConfig flood_plan = plan;
  flood_plan.deliver_corrupted = false;
  const double workers =
      std::min(util::ThreadPool::shared().threadCount(), 3u);
  double pull_rounds = 0;
  for (int protocol = 0; protocol < kProtocols; ++protocol) {
    for (const int adversary : {1, 3, 0}) {
      for (const std::string_view condition : {"clean", "faulty", "sink"}) {
        obs::MetricsSink object_sink;
        obs::MetricsSink soa_sink;
        LockstepSpec s;
        s.n = kChunkedN;
        s.rounds = 16;
        s.protocol = protocol;
        s.adversary = adversary;
        s.seed = 0xC0 + static_cast<std::uint64_t>(adversary);
        if (condition == "faulty") {
          s.fc = protocol == 2 ? &plan : &flood_plan;
        }
        if (condition == "sink") {
          s.object_sink = &object_sink;
          s.soa_sink = &soa_sink;
        }
        runLockstep(s);
        if (HasFatalFailure()) {
          return;
        }
        if (s.soa_sink == nullptr) {
          continue;
        }
        EXPECT_EQ(withoutShapeGauges(object_sink), withoutShapeGauges(soa_sink))
            << "protocol " << protocol << " adversary " << adversary;
        EXPECT_DOUBLE_EQ(soa_sink.registry.gauge("soa//workers")->value,
                         workers);
        EXPECT_DOUBLE_EQ(object_sink.registry.gauge("soa//workers")->value, 0);
        pull_rounds += soa_sink.registry.gauge("soa//pull_rounds")->value;
      }
    }
  }
  EXPECT_GT(pull_rounds, 0) << "no fault-free round took the chunked pull walk";
}

// A chunked walk rethrows the lowest chunk's error, which is the first one a
// serial walk meets: flood's round 1 on a star centred on the source hands
// every other node the token, corrupted on about one delivery in a hundred,
// in every chunk, and both engines must throw the same foreign token.
TEST(SoAState, ChunkedWalkThrowsTheSerialWalksFirstError) {
  const NodeId n = kChunkedN;
  const proto::FloodFactory factory(0, 0x5eed5eed5eed5eedULL, 64,
                                    proto::FloodMode::kDeterministic, 0);
  faults::FaultConfig fc;
  fc.corrupt_prob = 0.01;
  fc.deliver_corrupted = true;
  const faults::FaultPlan plan(n, fc, 0xE7);
  NodeId last_corrupted = 0;
  for (NodeId v = 1; v < n; ++v) {
    if (plan.deliveryFate(0, v, 1) == faults::FaultPlan::Fate::kCorrupt) {
      last_corrupted = v;
    }
  }
  ASSERT_GE(last_corrupted, 2 * kNodesPerChunk)
      << "no corrupted delivery in the last chunk: the test is vacuous";
  const auto firstError = [&](bool soa) {
    EngineConfig cfg;
    cfg.max_rounds = 4;
    cfg.stop_when_all_done = false;
    auto adversary = std::make_unique<adv::RotatingStarAdversary>(n);
    Engine engine = soa ? Engine(factory, std::move(adversary), cfg, 0xE7)
                        : Engine(createProcesses(factory, n),
                                 std::move(adversary), cfg, 0xE7);
    EXPECT_EQ(engine.soaActive(), soa);
    engine.setFaultInjector(
        std::make_shared<const faults::FaultInjector>(plan, &factory));
    try {
      engine.step();
    } catch (const util::CheckError& e) {
      return e.message();
    }
    return std::string("no error");
  };
  const std::string expected = firstError(false);
  EXPECT_NE(expected.find("foreign token"), std::string::npos) << expected;
  EXPECT_EQ(firstError(true), expected);
}

// Engines built and stepped inside BatchRunner trials run their chunks on
// the same shared pool their trial runs on; whatever no idle worker claims,
// the trial's thread runs itself.  Each trial's result must equal the same
// run on process objects, stepped on this thread.
TEST(SoAState, ChunkedEnginesInsideBatchTrialsMatchSerialRuns) {
  const std::unique_ptr<ProcessFactory> factory =
      makeProtocol(2, kChunkedN, 12);
  const auto trial = [&](std::uint64_t seed, bool soa) {
    EngineConfig cfg;
    cfg.max_rounds = 12;
    cfg.stop_when_all_done = false;
    auto adversary = makeAdversary(1, kChunkedN, seed);
    Engine engine = soa ? Engine(*factory, std::move(adversary), cfg, seed)
                        : Engine(createProcesses(*factory, kChunkedN),
                                 std::move(adversary), cfg, seed);
    return engine.run();
  };
  constexpr std::uint64_t kTrials = 6;
  std::vector<std::uint64_t> seeds;  // BatchRunner's seed for trial i
  for (std::uint64_t i = 0; i < kTrials; ++i) {
    seeds.push_back(util::hashCombine(0xBA7C, i));
  }
  std::vector<RunResult> nested(kTrials);
  BatchRunner().run(static_cast<int>(kTrials), 0xBA7C,
                    [&](std::uint64_t seed, TrialRecorder&) {
                      const auto i = std::find(seeds.begin(), seeds.end(),
                                               seed) - seeds.begin();
                      nested[static_cast<std::size_t>(i)] = trial(seed, true);
                    });
  for (std::size_t i = 0; i < kTrials; ++i) {
    expectSameResult(trial(seeds[i], false), nested[i],
                     "trial " + std::to_string(i));
  }
}

}  // namespace
}  // namespace dynet::sim
