// Differential fuzz over the engine's dual hot paths.
//
// The incremental topology path (Adversary::topologyUpdate) and the
// structure-of-arrays state store (sim/soa.h) are required to be
// BYTE-IDENTICAL to the reference engine: same RunResult fields, same
// per-node state digests, same serialized traces, same metrics.json —
// modulo the reserved metric prefixes (`topology/`, `soa/`) that report
// how the work was done rather than what the protocol did.  Each reference
// is reached by construction: the object path by sim::createProcesses plus
// the process-vector constructor, the rebuild-every-round path by wrapping
// the adversary in sim::RebuildEveryRound.
//
// This test samples random (adversary, protocol, fault-plan) configs from
// a fixed master seed and runs each through all four combinations of
// {SoA-capable factory constructor, delta-native adversary}, asserting
// every combination matches the reference (objects, rebuild) artifacts
// exactly.  Those four legs record topologies, which gives every graph a
// second holder, so delta-native adversaries patch copies.  A fifth leg
// runs the shipping default recording nothing, so the same patches run in
// place; it must match everything but the trace, which needs recording.
// Every leg's adversary sits inside a decorator that hashes each graph it
// hands the engine (edges and rows) without holding it, so the fifth leg
// is also held to the reference round by round.
//
// Budget: the default config count keeps the test inside the tier-1 ctest
// `--quick` budget (a few seconds).  Set DYNET_FUZZ_CONFIGS=<count> to
// fuzz harder (e.g. 500 configs overnight); the sampled stream is stable,
// so a failure reproduces from its printed config index alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/dynamic_adversaries.h"
#include "adversary/static_adversaries.h"
#include "adversary/trace_adversary.h"
#include "dataset/trace.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "lowerbound/distance_lb.h"
#include "net/graph.h"
#include "obs/sink.h"
#include "protocols/diameter_approx.h"
#include "protocols/distance_bfs.h"
#include "protocols/flood.h"
#include "protocols/max_flood.h"
#include "protocols/oracles.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/env.h"
#include "util/rng.h"

namespace dynet::sim {
namespace {

struct FuzzConfig {
  NodeId n = 0;
  Round rounds = 0;
  int adversary = 0;       // index into the zoo below
  // 0 flood-det, 1 flood-rand, 2 max_flood, 3 babbler, 4 diam_exact,
  // 5 diam_2approx, 6 diam_32approx (4+ run under EngineConfig::duplex).
  int protocol = 0;
  std::uint64_t adv_seed = 0;
  std::uint64_t run_seed = 0;
  bool with_sink = false;
  bool faulty = false;
  faults::FaultConfig fc;
};

constexpr int kAdversaryKinds = 12;

/// bk_gadget antenna length for a config (also used by the min-n clamp in
/// sampleConfig, so it must be a pure function of adv_seed).
int bkStretch(const FuzzConfig& c) {
  return static_cast<int>(c.adv_seed % 3);
}

std::unique_ptr<Adversary> makeAdversary(const FuzzConfig& c) {
  switch (c.adversary) {
    case 0:
      return std::make_unique<adv::StaticAdversary>(net::makePath(c.n));
    case 1:
      return std::make_unique<adv::StaticAdversary>(net::makeStar(c.n));
    case 2:
      return std::make_unique<adv::RandomTreeAdversary>(c.n, c.adv_seed);
    case 3:
      return std::make_unique<adv::RotatingStarAdversary>(c.n);
    case 4:
      return std::make_unique<adv::AnchoredStarAdversary>(c.n, c.adv_seed);
    case 5:
      return std::make_unique<adv::ShufflePathAdversary>(c.n, c.adv_seed);
    case 6:
      return std::make_unique<adv::IntervalAdversary>(c.n, 6, c.adv_seed);
    case 7:
      return std::make_unique<adv::EdgeChurnAdversary>(
          c.n, 1 + static_cast<int>(c.adv_seed % 4), c.adv_seed);
    case 8:
      return std::make_unique<adv::RandomGraphAdversary>(
          c.n, 0.2 + 0.1 * static_cast<double>(c.adv_seed % 5), c.adv_seed);
    case 10: {
      const lb::AchBitGadget gadget(c.n, /*width=*/0, c.adv_seed,
                                    /*intersect=*/c.adv_seed % 2 == 0);
      return std::make_unique<adv::StaticAdversary>(gadget.graph());
    }
    case 11: {
      const lb::BkApproxGadget gadget(c.n, /*width=*/0, bkStretch(c),
                                      c.adv_seed,
                                      /*orthogonal=*/(c.adv_seed / 2) % 2 == 0);
      return std::make_unique<adv::StaticAdversary>(gadget.graph());
    }
    default: {
      // Dataset replay: a synthetic trace deliberately SHORTER than the run
      // (c.rounds/3) so every end policy wraps/clamps/mirrors mid-run, with
      // the policy and seeded round-offset drawn from adv_seed.  This pulls
      // the whole dataset→TraceAdversary delta pipeline into the eight-combo
      // flag matrix.
      const sim::Round trace_rounds = std::max<sim::Round>(4, c.rounds / 3);
      auto trace = std::make_shared<const dataset::CompiledTrace>(
          dataset::randomTrace(c.n, trace_rounds,
                               1 + static_cast<int>(c.adv_seed % 3),
                               c.adv_seed));
      adv::TraceReplayOptions options;
      switch (c.adv_seed % 3) {
        case 0: options.policy = adv::TraceReplayOptions::EndPolicy::kWrap; break;
        case 1: options.policy = adv::TraceReplayOptions::EndPolicy::kClamp; break;
        default: options.policy = adv::TraceReplayOptions::EndPolicy::kMirror;
      }
      options.seeded_offset = (c.adv_seed / 3) % 2 == 0;
      options.seed = c.adv_seed;
      return std::make_unique<adv::TraceAdversary>(std::move(trace), options);
    }
  }
}

std::unique_ptr<ProcessFactory> makeFactory(const FuzzConfig& c) {
  switch (c.protocol) {
    case 0:
      return std::make_unique<proto::FloodFactory>(
          0, 0x2a, 8, proto::FloodMode::kDeterministic, c.rounds / 2);
    case 1:
      return std::make_unique<proto::FloodFactory>(
          0, 0x2a, 8, proto::FloodMode::kRandomized, c.rounds / 2);
    case 2: {
      std::vector<std::uint64_t> values;
      for (NodeId v = 0; v < c.n; ++v) {
        values.push_back(static_cast<std::uint64_t>((v * 37 + 11) % 100));
      }
      return std::make_unique<proto::MaxFloodFactory>(std::move(values), 8,
                                                      c.rounds);
    }
    case 3:
      return std::make_unique<proto::RandomBabblerFactory>(20);
    case 4:
      return std::make_unique<proto::DiamExactFactory>();
    case 5:
      return std::make_unique<proto::Diam2ApproxFactory>(0);
    default:
      return std::make_unique<proto::Diam32ApproxFactory>(c.adv_seed);
  }
}

/// Deterministic config #index from the master stream.  Sampling draws a
/// fixed count of values per config, so config i is reproducible without
/// replaying configs 0..i-1.
FuzzConfig sampleConfig(std::uint64_t master_seed, int index) {
  util::Rng rng(util::hashCombine(master_seed, static_cast<std::uint64_t>(index)));
  FuzzConfig c;
  c.n = static_cast<NodeId>(8 + rng.below(17));  // 8..24
  c.rounds = static_cast<Round>(30 + rng.below(41));  // 30..70
  c.adversary = static_cast<int>(rng.below(kAdversaryKinds));
  c.protocol = static_cast<int>(rng.below(7));
  c.adv_seed = rng.u64();
  c.run_seed = rng.u64();
  c.with_sink = rng.below(3) == 0;
  c.faulty = rng.below(2) == 0;
  if (c.faulty) {
    c.fc.drop_prob = 0.1 * static_cast<double>(rng.below(4));        // 0..0.3
    c.fc.corrupt_prob = 0.1 * static_cast<double>(rng.below(2));     // 0/0.1
    // FloodProcess DYNET_CHECKs foreign tokens, so mangled payloads may
    // only reach protocols that tolerate them.
    c.fc.deliver_corrupted = c.protocol >= 2 && rng.below(2) == 0;
    c.fc.crash_fraction = 0.25 * static_cast<double>(rng.below(2));  // 0/0.25
    c.fc.crash_window = c.rounds / 2;
    c.fc.restart = rng.below(2) == 0;
    c.fc.restart_downtime = 8;
  }
  // Guaranteed crash-restart coverage: every fourth config exercises
  // mid-run restarts regardless of the random draws above, so the flag
  // matrix always sees a node whose state is torn down and re-created
  // mid-run (tests/faults_test.cpp pins a scripted instance of the same
  // scenario).
  if (index % 4 == 1) {
    c.faulty = true;
    c.fc.crash_fraction = std::max(c.fc.crash_fraction, 0.25);
    c.fc.crash_window = std::max<Round>(1, c.rounds / 2);
    c.fc.restart = true;
    c.fc.restart_downtime = 8;
  }
  // The gadget families throw below their minimum size instead of clamping
  // (tests/lowerbound_chain_test.cpp), so the sampler clamps for them.
  if (c.adversary == 10) {
    c.n = std::max(c.n, lb::AchBitGadget::minNodes(0));
  } else if (c.adversary == 11) {
    c.n = std::max(c.n, lb::BkApproxGadget::minNodes(0, bkStretch(c)));
  }
  // The diam_* schedules are affine in n; give them room to cross their
  // phase boundaries (lazy phase-2 init, top-k selection) mid-fuzz.
  if (c.protocol >= 4) {
    c.rounds = std::max<Round>(c.rounds, 3 * c.n + 8);
  }
  return c;
}

std::string describeConfig(const FuzzConfig& c, int index) {
  std::ostringstream out;
  out << "config " << index << ": n=" << c.n << " rounds=" << c.rounds
      << " adversary=" << c.adversary << " protocol=" << c.protocol
      << " adv_seed=" << c.adv_seed << " run_seed=" << c.run_seed
      << " sink=" << c.with_sink << " faulty=" << c.faulty;
  return out.str();
}

/// Forwards topology() and topologyUpdate() to the wrapped adversary and
/// folds every graph it returns — edges() and each neighbors(v) row —
/// into one hash per round.  It keeps no pointer, and forwards the lent
/// `prev` as is, so a graph's holders are those of an undecorated run.
/// It also counts the rounds whose changed graph is the lent `prev`
/// object itself, i.e. patched in place.
class HashingAdversary final : public Adversary {
 public:
  HashingAdversary(std::unique_ptr<Adversary> inner,
                   std::vector<std::uint64_t>* hashes, int* in_place)
      : inner_(std::move(inner)), hashes_(hashes), in_place_(in_place) {}

  net::GraphPtr topology(Round round, const RoundObservation& obs) override {
    net::GraphPtr g = inner_->topology(round, obs);
    fold(*g);
    return g;
  }
  bool topologyUpdate(Round round, const RoundObservation& obs,
                      const net::GraphPtr& prev, TopologyUpdate& out) override {
    if (!inner_->topologyUpdate(round, obs, prev, out)) {
      return false;
    }
    if (out.graph != nullptr) {
      fold(*out.graph);  // otherwise the engine falls back to topology()
      if (out.graph == prev && out.edges_added + out.edges_removed > 0) {
        ++*in_place_;
      }
    }
    return true;
  }
  NodeId numNodes() const override { return inner_->numNodes(); }

 private:
  void fold(const net::Graph& g) {
    std::uint64_t h = util::hashCombine(0x6772617068ULL, g.numEdges());
    for (const net::Edge& e : g.edges()) {
      h = util::hashCombine(h, (static_cast<std::uint64_t>(e.a) << 32) |
                                   static_cast<std::uint32_t>(e.b));
    }
    for (NodeId v = 0; v < g.numNodes(); ++v) {
      const auto row = g.neighbors(v);
      h = util::hashCombine(h, row.size());
      for (const NodeId u : row) {
        h = util::hashCombine(h, static_cast<std::uint64_t>(u));
      }
    }
    hashes_->push_back(h);
  }

  std::unique_ptr<Adversary> inner_;
  std::vector<std::uint64_t>* hashes_;
  int* in_place_;
};

struct TrialArtifacts {
  RunResult result;
  std::vector<std::uint64_t> digests;
  std::string trace;         // empty for an unrecorded run
  std::string metrics_json;  // reserved-prefix lines already stripped
  std::vector<std::uint64_t> topology_hashes;  // one per round
  int in_place_patches = 0;  // not compared: it differs by construction

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
           x.metrics_json == y.metrics_json &&
           x.topology_hashes == y.topology_hashes;
  }
};

/// Drops every line mentioning a reserved-prefix metric.  `topology/` and
/// `soa/` report which hot path executed (delta hit rates, state
/// representation, delivery direction) and are the ONLY metrics allowed to
/// differ between the reference and optimized engines.  All paths
/// register the same protocol-level names, so stripping is symmetric and
/// the remainders stay comparable.
std::string stripReservedMetrics(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"topology/") != std::string::npos ||
        line.find("\"soa/") != std::string::npos) {
      continue;
    }
    out << line << '\n';
  }
  return out.str();
}

TrialArtifacts runConfig(const FuzzConfig& c, bool soa, bool deltas,
                         bool record = true) {
  const std::unique_ptr<ProcessFactory> factory = makeFactory(c);
  obs::MetricsSink sink;
  EngineConfig config;
  config.max_rounds = c.rounds;
  config.record_topologies = record;
  config.record_actions = record;
  config.stop_when_all_done = false;
  // Random crash schedules on random topologies routinely disconnect the
  // live subgraph; the fuzzer compares implementations on arbitrary
  // inputs, it does not certify model validity — so the model's
  // connectivity guard is off here (and off identically on both paths).
  config.check_connectivity = false;
  // Distance protocols are specified in full-duplex broadcast CONGEST;
  // the flag must be identical on both sides of every comparison.
  config.duplex = c.protocol >= 4;
  config.metrics = c.with_sink ? &sink : nullptr;
  TrialArtifacts artifacts;
  std::unique_ptr<Adversary> adversary = makeAdversary(c);
  if (!deltas) {
    adversary = std::make_unique<RebuildEveryRound>(std::move(adversary));
  }
  adversary = std::make_unique<HashingAdversary>(
      std::move(adversary), &artifacts.topology_hashes,
      &artifacts.in_place_patches);
  Engine engine =
      soa ? Engine(*factory, std::move(adversary), config, c.run_seed)
          : Engine(createProcesses(*factory, c.n), std::move(adversary),
                   config, c.run_seed);
  if (c.faulty) {
    engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
        faults::FaultPlan(c.n, c.fc, c.run_seed * 0x9E3779B97F4A7C15ULL + 0xFA),
        factory.get()));
  }
  artifacts.result = engine.run();
  for (NodeId v = 0; v < c.n; ++v) {
    artifacts.digests.push_back(engine.stateDigest(v));
  }
  if (record) {
    std::ostringstream trace;
    writeTrace(trace, traceFromEngine(engine));
    artifacts.trace = trace.str();
  }
  if (c.with_sink) {
    std::ostringstream json;
    sink.registry.writeJson(json);
    artifacts.metrics_json = stripReservedMetrics(json.str());
  }
  return artifacts;
}

int configCount() {
  // Unset: the --quick budget (a few seconds of tier-1 ctest time).
  // Set-but-garbage fails loudly instead of silently fuzzing 24 configs —
  // an overnight DYNET_FUZZ_CONFIGS=5OO run must not quietly do nothing.
  return static_cast<int>(
      util::envInt("DYNET_FUZZ_CONFIGS", 24, 1, 100'000'000));
}

TEST(FuzzDiff, OptimizedPathsMatchLegacyByteForByte) {
  const std::uint64_t master_seed = 0xF02Dull;
  const int count = configCount();
  int recorded_in_place = 0;
  int unrecorded_in_place = 0;
  for (int i = 0; i < count; ++i) {
    const FuzzConfig c = sampleConfig(master_seed, i);
    const TrialArtifacts reference = runConfig(c, false, false);
    // All three non-reference combinations of {soa, deltas} — the shipping
    // default (true, true) plus each partial engine, so a regression in
    // either subsystem is attributed to the right path.
    for (int combo = 1; combo < 4; ++combo) {
      const bool soa = (combo & 2) != 0;
      const bool deltas = (combo & 1) != 0;
      const TrialArtifacts other = runConfig(c, soa, deltas);
      EXPECT_TRUE(reference == other)
          << describeConfig(c, i) << " [soa=" << soa << " deltas=" << deltas
          << "]";
      recorded_in_place += other.in_place_patches;
    }
    // The fifth leg: the shipping default, recording nothing, so its
    // delta-native patches run in place.
    TrialArtifacts expected = reference;
    expected.trace.clear();
    const TrialArtifacts unrecorded =
        runConfig(c, true, true, /*record=*/false);
    EXPECT_TRUE(expected == unrecorded)
        << describeConfig(c, i) << " [unrecorded]";
    unrecorded_in_place += unrecorded.in_place_patches;
    if (HasFailure()) {
      break;  // one reproducible config is enough to debug
    }
  }
  // A recorded graph has a second holder and is never patched in place;
  // the unrecorded legs reach the in-place path.
  EXPECT_EQ(recorded_in_place, 0);
  EXPECT_GT(unrecorded_in_place, 0);
}

// The stripper itself is load-bearing for the comparisons above: pin that
// it removes exactly the reserved-prefix lines and nothing else.
TEST(FuzzDiff, ReservedMetricStripping) {
  const std::string json =
      "{\n"
      "    \"engine/rounds\": 5,\n"
      "    \"topology/full_builds\": 5,\n"
      "    \"soa//active\": 1,\n"
      "    \"flood/has_token\": 1\n"
      "}\n";
  EXPECT_EQ(stripReservedMetrics(json),
            "{\n    \"engine/rounds\": 5,\n    \"flood/has_token\": 1\n}\n");
}

}  // namespace
}  // namespace dynet::sim
