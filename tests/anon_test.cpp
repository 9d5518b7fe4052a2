// Anonymous-network mode (EngineConfig::anonymous) and the Di Luna &
// Baldoni counting protocols built on it.
//
// The mode's contract:
//
//   * OFF — delivery order is the canonical ascending-sender order:
//     byte-identical to a build without the feature (the golden corpus
//     pins this globally; the OrderProbe below pins the ordering locally);
//   * ON — each receiver sees its inbox in a per-(receiver, round) seeded
//     permutation, and a message's port is its index in that inbox; the
//     payload MULTISET is untouched.  The golden corpus
//     (babbler_anonymous_faulted_random_graph) pins the exact permutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/static_adversaries.h"
#include "campaign/shard_exec.h"
#include "campaign/spec.h"
#include "net/graph.h"
#include "protocols/anon_counting.h"
#include "protocols/flood.h"
#include "sim/engine.h"
#include "sim/message.h"
#include "util/rng.h"

namespace dynet::sim {
namespace {

// ------------------------------------------------------------- OrderProbe

/// Sends its node id on even (id+round) parity, otherwise listens and
/// records exactly what the engine delivered: the node ids embedded in the
/// payloads, in delivery order.
class OrderProbeProcess : public Process {
 public:
  struct Record {
    Round round;
    std::vector<NodeId> payloads;  // node id each payload claims
  };

  explicit OrderProbeProcess(NodeId self) : self_(self) {}

  Action onRound(Round round, util::CoinStream& /*coins*/) override {
    Action action;
    if ((static_cast<int>(self_) + round) % 2 == 0) {
      action.send = true;
      action.msg = MessageBuilder()
                       .put(static_cast<std::uint64_t>(self_), 16)
                       .build();
    }
    return action;
  }

  void onDeliver(Round round, bool sent,
                 std::span<const Message> received) override {
    if (sent) {
      return;
    }
    Record rec;
    rec.round = round;
    for (const Message& msg : received) {
      MessageReader reader(msg);
      rec.payloads.push_back(static_cast<NodeId>(reader.get(16)));
    }
    records.push_back(std::move(rec));
  }

  std::vector<Record> records;

 private:
  NodeId self_;
};

struct ProbeRun {
  std::vector<std::vector<OrderProbeProcess::Record>> by_node;
};

ProbeRun runProbe(NodeId n, Round rounds, std::uint64_t seed, bool anonymous) {
  std::vector<std::unique_ptr<Process>> processes;
  std::vector<OrderProbeProcess*> probes;
  for (NodeId v = 0; v < n; ++v) {
    auto p = std::make_unique<OrderProbeProcess>(v);
    probes.push_back(p.get());
    processes.push_back(std::move(p));
  }
  EngineConfig config;
  config.max_rounds = rounds;
  config.stop_when_all_done = false;
  config.anonymous = anonymous;
  Engine engine(std::move(processes),
                std::make_unique<adv::StaticAdversary>(net::makeClique(n)),
                config, seed);
  engine.run();
  ProbeRun run;
  for (OrderProbeProcess* probe : probes) {
    run.by_node.push_back(probe->records);
  }
  return run;
}

TEST(AnonymousMode, OffDeliversAscendingRealSenders) {
  const ProbeRun run = runProbe(8, 12, 7, /*anonymous=*/false);
  int checked = 0;
  for (const auto& records : run.by_node) {
    for (const auto& rec : records) {
      // Each payload names its author, so ascending payloads are ascending
      // senders.
      EXPECT_TRUE(std::is_sorted(rec.payloads.begin(), rec.payloads.end()))
          << "round " << rec.round;
      checked += static_cast<int>(rec.payloads.size());
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(AnonymousMode, OnDeliversPortNumbersAndPermutedPayloads) {
  const ProbeRun plain = runProbe(8, 12, 7, false);
  const ProbeRun anon = runProbe(8, 12, 7, true);
  ASSERT_EQ(plain.by_node.size(), anon.by_node.size());
  bool saw_permutation = false;
  for (std::size_t v = 0; v < anon.by_node.size(); ++v) {
    ASSERT_EQ(plain.by_node[v].size(), anon.by_node[v].size());
    for (std::size_t i = 0; i < anon.by_node[v].size(); ++i) {
      const auto& a = anon.by_node[v][i];
      const auto& p = plain.by_node[v][i];
      // Ports are inbox positions: the same multiset of payloads as the
      // non-anonymous run...
      auto sorted_a = a.payloads;
      auto sorted_p = p.payloads;
      std::sort(sorted_a.begin(), sorted_a.end());
      std::sort(sorted_p.begin(), sorted_p.end());
      EXPECT_EQ(sorted_a, sorted_p) << "node " << v << " round " << a.round;
      // ...but not (always) in the canonical order.
      saw_permutation = saw_permutation || a.payloads != p.payloads;
    }
  }
  EXPECT_TRUE(saw_permutation)
      << "anonymous mode never permuted any inbox — port numbering is "
         "leaking the canonical order";
}

TEST(AnonymousMode, PermutationIsSeededPerReceiverAndRound) {
  const ProbeRun a = runProbe(8, 12, 100, true);
  const ProbeRun b = runProbe(8, 12, 100, true);
  const ProbeRun c = runProbe(8, 12, 101, true);
  // Same seed: bit-for-bit reproducible.
  for (std::size_t v = 0; v < a.by_node.size(); ++v) {
    for (std::size_t i = 0; i < a.by_node[v].size(); ++i) {
      ASSERT_EQ(a.by_node[v][i].payloads, b.by_node[v][i].payloads);
    }
  }
  // Different seed: some inbox permutes differently.
  bool differs = false;
  for (std::size_t v = 0; v < a.by_node.size() && !differs; ++v) {
    for (std::size_t i = 0; i < a.by_node[v].size() && !differs; ++i) {
      differs = a.by_node[v][i].payloads != c.by_node[v][i].payloads;
    }
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------------------- anon protocols

TEST(AnonCounting, EstimatesCliqueSizeWithoutIdentities) {
  const NodeId n = 16;
  const int k = 64;
  const Round total_rounds = 512;
  proto::AnonCountingFactory factory(k, total_rounds, /*master_seed=*/0xA40);
  EngineConfig config;
  config.max_rounds = total_rounds;
  config.anonymous = true;
  Engine engine(factory,
                std::make_unique<adv::StaticAdversary>(net::makeClique(n)),
                config, 0x5EED);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.all_done);
  for (NodeId v = 0; v < n; ++v) {
    const double est = static_cast<double>(engine.process(v).output()) / 256.0;
    EXPECT_GT(est, n / 2.0) << "node " << v;
    EXPECT_LT(est, n * 2.0) << "node " << v;
  }
}

TEST(AnonSizeEstimate, LeaderDeclaresAndHaltFloodsToEveryNode) {
  const NodeId n = 12;
  proto::AnonSizeEstimateFactory factory(/*k=*/32, /*gamma=*/2,
                                         /*master_seed=*/0xB52);
  EngineConfig config;
  config.max_rounds = 6'000;
  config.anonymous = true;
  Engine engine(factory,
                std::make_unique<adv::StaticAdversary>(net::makeClique(n)),
                config, 0xD00D);
  const RunResult r = engine.run();
  ASSERT_TRUE(r.all_done) << "size estimation never terminated";
  const std::uint64_t declared = engine.process(0).output();
  EXPECT_GT(declared, 0u);
  const double est = static_cast<double>(declared) / 256.0;
  EXPECT_GT(est, n / 2.0);
  EXPECT_LT(est, n * 2.0);
  for (NodeId v = 1; v < n; ++v) {
    EXPECT_EQ(engine.process(v).output(), declared)
        << "node " << v << " halted with a different count";
  }
}

TEST(AnonSizeEstimate, PhaseLocatorDoublesPhaseLengths) {
  proto::AnonSizeEstimateProcess p(/*k=*/4, /*gamma=*/1, /*leader=*/false,
                                   /*exp_seed=*/1);
  // Phase p spans k*gamma*2^p rounds: ends at 4, 12, 28, 60, ...
  EXPECT_EQ(p.locate(1).phase, 0);
  EXPECT_EQ(p.locate(4).phase_end, 4);
  EXPECT_EQ(p.locate(5).phase, 1);
  EXPECT_EQ(p.locate(12).phase_end, 12);
  EXPECT_EQ(p.locate(13).phase, 2);
  EXPECT_EQ(p.locate(28).phase_end, 28);
}

// ---------------------------------------------- engine/campaign integration

TEST(AnonymousMode, SoAStateIsGatedOffButResultsMatch) {
  // A factory-built anonymous engine must take the object path (ports
  // shuffle per receiver, which the SoA columns do not model) and produce
  // the same run as an engine built on createProcesses.
  const NodeId n = 10;
  const auto run = [&](bool soa) {
    proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kDeterministic,
                                0);
    EngineConfig config;
    config.max_rounds = 64;
    config.anonymous = true;
    auto adversary = std::make_unique<adv::StaticAdversary>(net::makePath(n));
    Engine engine = soa ? Engine(factory, std::move(adversary), config, 0xF10)
                        : Engine(createProcesses(factory, n),
                                 std::move(adversary), config, 0xF10);
    EXPECT_FALSE(engine.soaActive());
    const RunResult r = engine.run();
    std::vector<std::uint64_t> digests;
    for (NodeId v = 0; v < n; ++v) {
      digests.push_back(engine.stateDigest(v));
    }
    return std::make_pair(r.messages_sent, digests);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(AnonymousMode, AnonProtocolsForceTheFlagInShards) {
  campaign::ShardConfig shard;
  shard.protocol = "anon_count";
  shard.adversary = "static_ring";
  shard.n = 8;
  shard.k = 8;
  shard.diameter = 4;
  shard.max_rounds = 2'000;
  shard.trials = 2;
  // shard.anonymous stays false: execution must force it for anon_*.
  const campaign::ShardResult result = campaign::runShard(shard);
  ASSERT_EQ(result.trials, 2);
  const auto it = result.metrics.find("all_done");
  ASSERT_NE(it, result.metrics.end());
  for (const double done : it->second) {
    EXPECT_EQ(done, 1.0);
  }
}

}  // namespace
}  // namespace dynet::sim
