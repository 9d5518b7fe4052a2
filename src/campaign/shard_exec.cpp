#include "campaign/shard_exec.h"

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "adversary/churn_adversaries.h"
#include "adversary/distance_adversaries.h"
#include "adversary/dual_graph.h"
#include "adversary/dynamic_adversaries.h"
#include "adversary/static_adversaries.h"
#include "adversary/trace_adversary.h"
#include "dataset/compiled_format.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "net/churn.h"
#include "net/graph.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "protocols/anon_counting.h"
#include "protocols/cflood.h"
#include "protocols/consensus_known_d.h"
#include "protocols/consensus_via_leader.h"
#include "protocols/counting.h"
#include "protocols/diameter_approx.h"
#include "protocols/distance_bfs.h"
#include "protocols/flood.h"
#include "protocols/hear_from_n.h"
#include "protocols/leader_unknown_d.h"
#include "protocols/max_flood.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::campaign {

namespace {

std::vector<std::uint64_t> alternatingInputs(sim::NodeId n) {
  std::vector<std::uint64_t> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (sim::NodeId v = 0; v < n; ++v) {
    inputs.push_back(static_cast<std::uint64_t>(v % 2));
  }
  return inputs;
}

}  // namespace

const std::vector<std::string>& protocolNames() {
  static const std::vector<std::string> names = {
      "flood",       "cflood",           "leader_known_d",
      "consensus_known_d", "count",      "hear_from_n",
      "leader_unknown_d",  "consensus_unknown_d",
      "anon_count",  "anon_size_estimate",
      "diam_exact",  "diam_2approx",     "diam_32approx"};
  return names;
}

const std::vector<std::string>& adversaryNames() {
  static const std::vector<std::string> names = {
      "static_path",  "static_star",   "static_ring", "static_torus",
      "random_tree",  "anchored_star", "rotating_star", "shuffle_path",
      "interval",     "edge_churn",    "gnp",         "dual_ring",
      "trace",        "ach_gadget",    "bk_gadget"};
  return names;
}

std::unique_ptr<sim::ProcessFactory> makeProtocolFactory(
    const ShardConfig& shard, std::uint64_t seed) {
  const sim::NodeId n = shard.n;
  const int diameter = shard.diameter;
  if (shard.protocol == "flood") {
    return std::make_unique<proto::FloodFactory>(
        0, 0x2a, 8, proto::FloodMode::kDeterministic, 0);
  }
  if (shard.protocol == "cflood") {
    return std::make_unique<proto::CFloodFactory>(
        0, 0x2a, 8, proto::FloodMode::kDeterministic, diameter);
  }
  if (shard.protocol == "leader_known_d") {
    return std::make_unique<proto::LeaderKnownDFactory>(diameter);
  }
  if (shard.protocol == "consensus_known_d") {
    return std::make_unique<proto::ConsensusKnownDFactory>(
        alternatingInputs(n), diameter);
  }
  if (shard.protocol == "count") {
    const int k = shard.k > 0 ? shard.k : 128;
    return std::make_unique<proto::CountingFactory>(
        k, proto::countingRounds(k, diameter, n, 3), seed);
  }
  if (shard.protocol == "hear_from_n") {
    const int k = shard.k > 0 ? shard.k : 128;
    return std::make_unique<proto::HearFromNFactory>(
        k, proto::countingRounds(k, diameter, n, 3), seed, 0.25);
  }
  if (shard.protocol == "anon_count") {
    // Unconscious counting: the harness picks the round budget (it may use
    // N and D; the anonymous protocol itself never reads either).
    const int k = shard.k > 0 ? shard.k : 96;
    return std::make_unique<proto::AnonCountingFactory>(
        k, proto::countingRounds(k, diameter, n, 3), seed);
  }
  if (shard.protocol == "anon_size_estimate") {
    const int k = shard.k > 0 ? shard.k : 32;
    return std::make_unique<proto::AnonSizeEstimateFactory>(k, /*gamma=*/3,
                                                            seed);
  }
  if (shard.protocol == "diam_exact") {
    return std::make_unique<proto::DiamExactFactory>();
  }
  if (shard.protocol == "diam_2approx") {
    return std::make_unique<proto::Diam2ApproxFactory>(0);
  }
  if (shard.protocol == "diam_32approx") {
    return std::make_unique<proto::Diam32ApproxFactory>(seed);
  }
  if (shard.protocol == "leader_unknown_d" ||
      shard.protocol == "consensus_unknown_d") {
    proto::LeaderConfig config;
    config.n_estimate =
        shard.n_estimate > 0 ? shard.n_estimate : 1.1 * static_cast<double>(n);
    config.c = shard.c;
    config.k = shard.k > 0 ? shard.k : 64;
    if (shard.protocol == "consensus_unknown_d") {
      return std::make_unique<proto::ConsensusViaLeaderFactory>(
          config, seed, alternatingInputs(n));
    }
    return std::make_unique<proto::LeaderElectFactory>(config, seed);
  }
  DYNET_CHECK(false) << "unknown protocol '" << shard.protocol << "'";
  return nullptr;  // unreachable
}

std::unique_ptr<sim::Adversary> makeAdversary(const ShardConfig& shard,
                                              std::uint64_t seed) {
  const sim::NodeId n = shard.n;
  if (shard.adversary == "static_path") {
    return std::make_unique<adv::StaticAdversary>(net::makePath(n));
  }
  if (shard.adversary == "static_star") {
    return std::make_unique<adv::StaticAdversary>(net::makeStar(n));
  }
  if (shard.adversary == "static_ring") {
    return std::make_unique<adv::StaticAdversary>(net::makeRing(n));
  }
  if (shard.adversary == "static_torus") {
    const auto side =
        static_cast<sim::NodeId>(std::sqrt(static_cast<double>(n)));
    DYNET_CHECK(side * side == n) << "n must be a square for a torus";
    return std::make_unique<adv::StaticAdversary>(net::makeTorus(side, side));
  }
  if (shard.adversary == "random_tree") {
    return std::make_unique<adv::RandomTreeAdversary>(n, seed);
  }
  if (shard.adversary == "anchored_star") {
    return std::make_unique<adv::AnchoredStarAdversary>(n, seed);
  }
  if (shard.adversary == "rotating_star") {
    return std::make_unique<adv::RotatingStarAdversary>(n);
  }
  if (shard.adversary == "shuffle_path") {
    return std::make_unique<adv::ShufflePathAdversary>(n, seed);
  }
  if (shard.adversary == "interval") {
    return std::make_unique<adv::IntervalAdversary>(
        n, static_cast<sim::Round>(shard.interval), seed);
  }
  if (shard.adversary == "edge_churn") {
    return std::make_unique<adv::EdgeChurnAdversary>(n, shard.churn, seed);
  }
  if (shard.adversary == "gnp") {
    return std::make_unique<adv::RandomGraphAdversary>(
        n, shard.p > 0 ? shard.p : 0.02, seed);
  }
  if (shard.adversary == "dual_ring") {
    return adv::makeRingWithChords(n, adv::DualGraphPolicy::kRandom,
                                   shard.p > 0 ? shard.p : 0.5, seed);
  }
  if (shard.adversary == "trace") {
    DYNET_CHECK(!shard.trace.empty())
        << "adversary 'trace' needs a trace path (shard config key 'trace')";
    // Memoized across the campaign: many shards, one parse/cache read.
    std::shared_ptr<const dataset::CompiledTrace> trace =
        dataset::loadTraceShared(shard.trace,
                                 {.bucket = shard.trace_bucket});
    DYNET_CHECK(trace->num_nodes == n)
        << "trace " << shard.trace << " has " << trace->num_nodes
        << " node(s); shard n=" << n << " — pass n=" << trace->num_nodes;
    adv::TraceReplayOptions options;
    options.policy = adv::parseEndPolicy(shard.trace_policy);
    options.seeded_offset = shard.trace_offset;
    options.seed = seed;
    options.spine = shard.trace_spine;
    return std::make_unique<adv::TraceAdversary>(std::move(trace), options);
  }
  if (shard.adversary == "ach_gadget") {
    return adv::makeAchGadgetAdversary(n, shard.gadget_width, seed,
                                       shard.gadget_intersect);
  }
  if (shard.adversary == "bk_gadget") {
    return adv::makeBkGadgetAdversary(n, shard.gadget_width, shard.stretch,
                                      seed, shard.gadget_intersect);
  }
  DYNET_CHECK(false) << "unknown adversary '" << shard.adversary << "'";
  return nullptr;  // unreachable
}

sim::EngineConfig makeEngineConfig(const ShardConfig& shard) {
  sim::EngineConfig config;
  config.max_rounds = shard.max_rounds;
  // The anon_* protocols are only meaningful under port numbering, so they
  // force anonymous mode on regardless of the shard flag.
  config.anonymous = shard.anonymous || shard.protocol.rfind("anon_", 0) == 0;
  // The diam_* protocols are specified in full-duplex broadcast CONGEST (a
  // sender still hears its neighbors that round).
  config.duplex = shard.protocol.rfind("diam_", 0) == 0;
  return config;
}

std::string ShardResult::toJson() const {
  std::ostringstream out;
  out << "{\"dynet_shard\":1,\"hash\":\"" << hash << "\",\"trials\":" << trials
      << ",\"metrics\":{";
  bool first_metric = true;
  for (const auto& [name, samples] : metrics) {
    if (!first_metric) {
      out << ",";
    }
    first_metric = false;
    out << "\"" << name << "\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i > 0) {
        out << ",";
      }
      obs::writeJsonNumber(out, samples[i]);
    }
    out << "]";
  }
  out << "}}";
  return out.str();
}

ShardResult ShardResult::parseJson(const std::string& text) {
  return fromJson(obs::Json::parse(text));
}

ShardResult ShardResult::fromJson(const obs::Json& root) {
  DYNET_CHECK(root.isObject() && root.has("dynet_shard"))
      << "not a shard result";
  ShardResult result;
  result.hash = root.at("hash").str();
  result.trials = static_cast<int>(integerField(
      root.at("trials"), "trials", 0, std::numeric_limits<int>::max()));
  for (const auto& [name, samples] : root.at("metrics").members()) {
    std::vector<double>& values = result.metrics[name];
    for (const obs::Json& v : samples.items()) {
      values.push_back(v.number());
    }
  }
  return result;
}

ShardResult runShard(const ShardConfig& shard, obs::MetricsRegistry* prof) {
  std::optional<obs::ProfScope> prof_scope;
  if (prof != nullptr) {
    prof_scope.emplace(prof);
  }
  const bool faulty = !faults::FaultPlan(shard.n, shard.fault.config, 0).zero();
  // Sequential within the shard: campaigns parallelize across shards (and
  // across worker processes), and sequential trials keep worker memory flat.
  sim::BatchRunner runner(sim::BatchOptions{.threads = 1});
  sim::TrialSamples samples;
  runner.run(
      shard.trials, shard.seed_base,
      [&](std::uint64_t seed, sim::TrialRecorder& rec) {
        const std::unique_ptr<sim::ProcessFactory> factory =
            makeProtocolFactory(shard, seed);
        sim::Engine engine(*factory, makeAdversary(shard, seed),
                           makeEngineConfig(shard), seed);
        if (faulty) {
          engine.setFaultInjector(
              std::make_shared<const faults::FaultInjector>(
                  faults::FaultPlan(shard.n, shard.fault.config,
                                    util::hashCombine(seed, 0xFA)),
                  factory.get()));
        }
        const sim::RunResult& r = engine.run();
        rec.set("rounds", static_cast<double>(r.all_done_round));
        rec.set("all_done", r.all_done ? 1.0 : 0.0);
        rec.set("messages", static_cast<double>(r.messages_sent));
        rec.set("bits", static_cast<double>(r.bits_sent));
        rec.set("max_bits_per_node",
                static_cast<double>(r.max_bits_per_node));
        if (faulty) {
          rec.set("crashes", static_cast<double>(r.crashes));
          rec.set("restarts", static_cast<double>(r.restarts));
          rec.set("messages_dropped",
                  static_cast<double>(r.messages_dropped));
          rec.set("messages_corrupted",
                  static_cast<double>(r.messages_corrupted));
        }
      },
      &samples);
  ShardResult result;
  result.hash = shard.hash();
  result.trials = shard.trials;
  result.metrics = std::move(samples.metrics);
  return result;
}

}  // namespace dynet::campaign
