// Golden-corpus regression: canonical run digests pinned to files.
//
// One canonical run per protocol family plus one per lower-bound
// construction (Γ = CFloodNetwork, Λ = ConsensusNetwork on a DISJ=1
// instance, Υ = ConsensusNetwork on a DISJ=0 instance).  Each run's
// artifacts — RunResult fields, per-node state digests, and an FNV-1a
// digest of the serialized trace — are written as key=value lines and
// compared byte-for-byte against `tests/golden/<name>.golden`.
//
// Each run whose adversary is delta-native runs a second time recording
// nothing, so its graphs have no holder but the engine and the adversary
// and are patched in place; that run must match every field but
// trace_fnv1a, which only a recorded run has.
//
// Unlike the differential fuzz test (which compares two engine paths
// against each other and so would miss a bug that breaks both the same
// way), the corpus pins today's behaviour against the repository history:
// any engine, protocol, adversary, or trace-format change that shifts a
// canonical run fails here with a readable key-level diff.
//
// Regenerate intentionally with scripts/regen_golden.sh (which runs this
// binary with DYNET_REGEN_GOLDEN=1) and commit the .golden diff alongside
// the change that explains it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/churn_adversaries.h"
#include "adversary/dynamic_adversaries.h"
#include "adversary/static_adversaries.h"
#include "adversary/trace_adversary.h"
#include "cc/disjointness_cp.h"
#include "dataset/compiled_format.h"
#include "dataset/text_format.h"
#include "dataset/trace.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "lowerbound/composition.h"
#include "lowerbound/distance_lb.h"
#include "net/graph.h"
#include "protocols/cflood.h"
#include "protocols/counting.h"
#include "protocols/diameter_approx.h"
#include "protocols/distance_bfs.h"
#include "protocols/flood.h"
#include "protocols/gossip.h"
#include "protocols/hear_from_n.h"
#include "protocols/leader_unknown_d.h"
#include "protocols/max_flood.h"
#include "protocols/oracles.h"
#include "protocols/resilient_flood.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/rng.h"

#ifndef DYNET_GOLDEN_DIR
#error "DYNET_GOLDEN_DIR must point at tests/golden"
#endif

namespace dynet {
namespace {

/// FNV-1a over the serialized trace.  Deliberately not std::hash (which is
/// implementation-defined and may differ across standard libraries): the
/// .golden files must mean the same bytes on every toolchain.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::string joined(const std::vector<T>& xs) {
  std::ostringstream out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out << (i == 0 ? "" : ",") << xs[i];
  }
  return out.str();
}

/// The canonical artifact rendering: stable key=value lines, one per
/// field, so a golden mismatch reads as a field-level diff in gtest
/// output rather than an opaque hash flip.  A run that records no
/// topologies or actions has no trace, so it renders no trace_fnv1a.
std::string renderArtifacts(sim::Engine& engine, const sim::RunResult& r,
                            bool recorded) {
  std::ostringstream out;
  out << "rounds_executed=" << r.rounds_executed << "\n";
  out << "all_done=" << (r.all_done ? 1 : 0) << "\n";
  out << "all_done_round=" << r.all_done_round << "\n";
  out << "done_round=" << joined(r.done_round) << "\n";
  out << "messages_sent=" << r.messages_sent << "\n";
  out << "bits_sent=" << r.bits_sent << "\n";
  out << "bits_per_node=" << joined(r.bits_per_node) << "\n";
  out << "max_bits_per_node=" << r.max_bits_per_node << "\n";
  out << "bits_per_round=" << joined(r.bits_per_round) << "\n";
  out << "crashes=" << r.crashes << "\n";
  out << "restarts=" << r.restarts << "\n";
  out << "messages_dropped=" << r.messages_dropped << "\n";
  out << "messages_corrupted=" << r.messages_corrupted << "\n";
  std::uint64_t state = 1469598103934665603ull;
  for (sim::NodeId v = 0; v < engine.numNodes(); ++v) {
    state = util::hashCombine(state, engine.stateDigest(v));
  }
  out << "state_digest=" << state << "\n";
  if (recorded) {
    std::ostringstream trace;
    sim::writeTrace(trace, engine.trace());
    out << "trace_fnv1a=" << fnv1a(trace.str()) << "\n";
  }
  return out.str();
}

sim::EngineConfig canonicalConfig(sim::Round rounds, bool record) {
  sim::EngineConfig config;
  config.max_rounds = rounds;
  config.record_topologies = record;
  config.record_actions = record;
  config.stop_when_all_done = false;
  return config;
}

std::string runCanonical(const sim::ProcessFactory& factory,
                         std::unique_ptr<sim::Adversary> adversary,
                         sim::Round rounds, std::uint64_t seed,
                         const faults::FaultConfig* fc = nullptr,
                         bool duplex = false, bool anonymous = false,
                         bool record = true) {
  const sim::NodeId n = adversary->numNodes();
  // Factory construction takes the shipping default path (the SoA engine
  // for factories with an SoA model), so the .golden files pin the SoA
  // engine against the repository history, not just the object path.
  sim::EngineConfig config = canonicalConfig(rounds, record);
  config.duplex = duplex;
  config.anonymous = anonymous;
  sim::Engine engine(factory, std::move(adversary), config, seed);
  if (fc != nullptr) {
    engine.setFaultInjector(std::make_shared<const faults::FaultInjector>(
        faults::FaultPlan(n, *fc, seed ^ 0xFA), &factory));
  }
  const sim::RunResult r = engine.run();
  return renderArtifacts(engine, r, record);
}

/// The same canonical run recording nothing.  Then no one but the engine
/// and the adversary holds a round's graph, so a delta-native adversary's
/// patches run in place rather than on copies.
std::string runUnrecorded(const sim::ProcessFactory& factory,
                          std::unique_ptr<sim::Adversary> adversary,
                          sim::Round rounds, std::uint64_t seed,
                          bool duplex = false) {
  return runCanonical(factory, std::move(adversary), rounds, seed, nullptr,
                      duplex, /*anonymous=*/false, /*record=*/false);
}

/// Compares `rendered` against DYNET_GOLDEN_DIR/<name>.golden, or rewrites
/// the file when DYNET_REGEN_GOLDEN is set.
void expectGolden(const std::string& name, const std::string& rendered) {
  const std::string path = std::string(DYNET_GOLDEN_DIR) + "/" + name + ".golden";
  if (std::getenv("DYNET_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run scripts/regen_golden.sh";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), rendered)
      << "canonical run drifted from " << path
      << " — if intentional, regenerate via scripts/regen_golden.sh and "
         "commit the diff";
}

/// Compares an unrecorded run's rendering against every line of
/// DYNET_GOLDEN_DIR/<name>.golden except trace_fnv1a.
void expectGoldenUnrecorded(const std::string& name,
                            const std::string& rendered) {
  const std::string path = std::string(DYNET_GOLDEN_DIR) + "/" + name + ".golden";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::string expected;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("trace_fnv1a=", 0) != 0) {
      expected += line + "\n";
    }
  }
  EXPECT_EQ(expected, rendered)
      << "the unrecorded run drifted from " << path;
}

// ------------------------------------------------------------- protocols

TEST(GoldenCorpus, FloodDeterministicOnEdgeChurn) {
  proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kDeterministic,
                              /*halt_round=*/40);
  expectGolden("flood_det_edge_churn",
               runCanonical(factory,
                            std::make_unique<adv::EdgeChurnAdversary>(20, 2, 7),
                            /*rounds=*/48, /*seed=*/0xA001));
  expectGoldenUnrecorded(
      "flood_det_edge_churn",
      runUnrecorded(factory, std::make_unique<adv::EdgeChurnAdversary>(20, 2, 7),
                    /*rounds=*/48, /*seed=*/0xA001));
}

TEST(GoldenCorpus, FloodRandomizedOnRandomGraph) {
  proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kRandomized,
                              /*halt_round=*/40);
  expectGolden(
      "flood_rand_random_graph",
      runCanonical(factory,
                   std::make_unique<adv::RandomGraphAdversary>(18, 0.4, 5),
                   /*rounds=*/48, /*seed=*/0xA002));
}

TEST(GoldenCorpus, MaxFloodOnRotatingStar) {
  std::vector<std::uint64_t> values;
  for (int v = 0; v < 16; ++v) {
    values.push_back(static_cast<std::uint64_t>((v * 37 + 11) % 100));
  }
  proto::MaxFloodFactory factory(values, 8, /*total_rounds=*/40);
  expectGolden("max_flood_rotating_star",
               runCanonical(factory,
                            std::make_unique<adv::RotatingStarAdversary>(16),
                            /*rounds=*/48, /*seed=*/0xA003));
}

TEST(GoldenCorpus, CFloodOnShufflePath) {
  proto::CFloodFactory factory(0, 0x15, 8, proto::FloodMode::kDeterministic,
                               /*wait_rounds=*/15);
  expectGolden("cflood_shuffle_path",
               runCanonical(factory,
                            std::make_unique<adv::ShufflePathAdversary>(16, 3),
                            /*rounds=*/40, /*seed=*/0xA004));
}

TEST(GoldenCorpus, CountingOnIntervalAdversary) {
  proto::CountingFactory factory(/*k=*/2, /*total_rounds=*/60,
                                 /*master_seed=*/0xC0);
  expectGolden("counting_interval",
               runCanonical(factory,
                            std::make_unique<adv::IntervalAdversary>(12, 6, 4),
                            /*rounds=*/60, /*seed=*/0xA005));
  expectGoldenUnrecorded(
      "counting_interval",
      runUnrecorded(factory, std::make_unique<adv::IntervalAdversary>(12, 6, 4),
                    /*rounds=*/60, /*seed=*/0xA005));
}

TEST(GoldenCorpus, HearFromNOnAnchoredStar) {
  proto::HearFromNFactory factory(/*k=*/8, /*max_rounds=*/60,
                                  /*master_seed=*/0xB1, /*epsilon=*/0.1);
  expectGolden("hear_from_n_anchored_star",
               runCanonical(factory,
                            std::make_unique<adv::AnchoredStarAdversary>(14, 6),
                            /*rounds=*/60, /*seed=*/0xA006));
}

TEST(GoldenCorpus, GossipOnRandomTree) {
  proto::GossipFactory factory(/*total_tokens=*/4, /*total_rounds=*/56);
  expectGolden("gossip_random_tree",
               runCanonical(factory,
                            std::make_unique<adv::RandomTreeAdversary>(14, 8),
                            /*rounds=*/56, /*seed=*/0xA007));
}

// The paper's §7 LEADERELECT (unknown D, N' = 1.1·N): phases 0-3 of its
// public schedule, stage A/B/C/D messages, and the election of key 12 at
// round 1227 on the object path (no SoA model).
TEST(GoldenCorpus, LeaderUnknownDOnRandomTree) {
  proto::LeaderConfig config;
  config.n_estimate = 1.1 * 12;
  config.c = 0.25;
  config.k = 16;
  proto::LeaderElectFactory factory(config, /*master_seed=*/0xA00D);
  expectGolden("leader_unknown_d_random_tree",
               runCanonical(factory,
                            std::make_unique<adv::RandomTreeAdversary>(12, 9),
                            /*rounds=*/1300, /*seed=*/0xA00D));
}

faults::FaultConfig babblerFaults() {
  faults::FaultConfig fc;
  fc.drop_prob = 0.2;
  fc.corrupt_prob = 0.1;
  fc.deliver_corrupted = true;
  fc.crash_fraction = 0.25;
  fc.crash_window = 24;
  fc.restart = true;
  fc.restart_downtime = 8;
  return fc;
}

TEST(GoldenCorpus, BabblerUnderFaults) {
  proto::RandomBabblerFactory factory(20);
  const faults::FaultConfig fc = babblerFaults();
  expectGolden(
      "babbler_faulted_random_graph",
      runCanonical(factory,
                   std::make_unique<adv::RandomGraphAdversary>(16, 0.5, 9),
                   /*rounds=*/48, /*seed=*/0xA008, &fc));
}

// The same faulted run under anonymous port numbering.  RandomBabbler
// folds its inbox into its state in delivery order, so this digest pins
// the keyed port permutation and that it is applied after the drop/corrupt
// filter (EngineConfig::anonymous).
TEST(GoldenCorpus, BabblerAnonymousFaultedRandomGraph) {
  proto::RandomBabblerFactory factory(20);
  const faults::FaultConfig fc = babblerFaults();
  expectGolden(
      "babbler_anonymous_faulted_random_graph",
      runCanonical(factory,
                   std::make_unique<adv::RandomGraphAdversary>(16, 0.5, 9),
                   /*rounds=*/48, /*seed=*/0xA008, &fc, /*duplex=*/false,
                   /*anonymous=*/true));
}

// ------------------------------------------- distance protocols (duplex)

// The diam_* runs pin the full-duplex delivery path (EngineConfig::duplex)
// against the repository history — none of the other corpus entries reach
// it — together with the gadget constructions they are designed to decide.

TEST(GoldenCorpus, DiamExactOnAchGadget) {
  const lb::AchBitGadget gadget(20, /*width=*/0, /*seed=*/0xD1,
                                /*intersect=*/true);
  proto::DiamExactFactory factory;
  expectGolden(
      "diam_exact_ach_gadget",
      runCanonical(factory,
                   std::make_unique<adv::StaticAdversary>(gadget.graph()),
                   /*rounds=*/proto::DiamExactProcess::scheduleRounds(20) + 1,
                   /*seed=*/0xA00A, nullptr, /*duplex=*/true));
  expectGoldenUnrecorded(
      "diam_exact_ach_gadget",
      runUnrecorded(factory,
                    std::make_unique<adv::StaticAdversary>(gadget.graph()),
                    /*rounds=*/proto::DiamExactProcess::scheduleRounds(20) + 1,
                    /*seed=*/0xA00A, /*duplex=*/true));
}

TEST(GoldenCorpus, Diam2ApproxOnBkGadget) {
  const lb::BkApproxGadget gadget(24, /*width=*/0, /*stretch=*/1,
                                  /*seed=*/0xD2, /*orthogonal=*/false);
  proto::Diam2ApproxFactory factory(0);
  expectGolden(
      "diam_2approx_bk_gadget",
      runCanonical(factory,
                   std::make_unique<adv::StaticAdversary>(gadget.graph()),
                   /*rounds=*/proto::Diam2ApproxProcess::scheduleRounds(24) + 1,
                   /*seed=*/0xA00B, nullptr, /*duplex=*/true));
  expectGoldenUnrecorded(
      "diam_2approx_bk_gadget",
      runUnrecorded(factory,
                    std::make_unique<adv::StaticAdversary>(gadget.graph()),
                    /*rounds=*/proto::Diam2ApproxProcess::scheduleRounds(24) + 1,
                    /*seed=*/0xA00B, /*duplex=*/true));
}

TEST(GoldenCorpus, Diam32ApproxOnTorus) {
  proto::Diam32ApproxFactory factory(/*seed=*/0xD3);
  expectGolden(
      "diam_32approx_torus",
      runCanonical(
          factory,
          std::make_unique<adv::StaticAdversary>(net::makeTorus(4, 5)),
          /*rounds=*/proto::Diam32ApproxProcess::scheduleRounds(20) + 1,
          /*seed=*/0xA00C, nullptr, /*duplex=*/true));
  expectGoldenUnrecorded(
      "diam_32approx_torus",
      runUnrecorded(
          factory,
          std::make_unique<adv::StaticAdversary>(net::makeTorus(4, 5)),
          /*rounds=*/proto::Diam32ApproxProcess::scheduleRounds(20) + 1,
          /*seed=*/0xA00C, /*duplex=*/true));
}

// ------------------------------------------------------ dataset replay

// Pins the full dataset pipeline against the repository history: text
// parse of the committed fixture (label interning, interval merging,
// bucketing), compilation to the delta timeline, the content hash of the
// canonical serialization, and a flood replay through TraceAdversary.
// Any drift in parser semantics, compiled layout, or replay order fails
// here even if text and cache paths drift together (which the
// differential checks cannot see).
TEST(GoldenCorpus, TraceReplayFixture) {
  const std::string path =
      std::string(DYNET_GOLDEN_DIR) + "/fixture.events";
  // Parse straight from text — no sidecar cache read/write, so the golden
  // dir stays pristine and the rendering exercises the parser every run.
  const dataset::CompiledTrace trace =
      dataset::compile(dataset::parseEventListFile(path));
  std::ostringstream head;
  head << "num_nodes=" << trace.num_nodes << "\n";
  head << "num_rounds=" << trace.rounds << "\n";
  head << "content_hash=" << dataset::contentHash(trace) << "\n";
  auto shared = std::make_shared<const dataset::CompiledTrace>(trace);
  adv::TraceReplayOptions options;
  options.policy = adv::TraceReplayOptions::EndPolicy::kMirror;
  proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kDeterministic,
                              /*halt_round=*/40);
  expectGolden(
      "trace_replay_fixture",
      head.str() +
          runCanonical(factory,
                       std::make_unique<adv::TraceAdversary>(shared, options),
                       /*rounds=*/48, /*seed=*/0xA009));
  expectGoldenUnrecorded(
      "trace_replay_fixture",
      head.str() +
          runUnrecorded(factory,
                        std::make_unique<adv::TraceAdversary>(shared, options),
                        /*rounds=*/48, /*seed=*/0xA009));
}

// ------------------------------------------- lower-bound constructions

std::string runLowerBoundReference(std::unique_ptr<sim::Adversary> adversary,
                                   sim::Round rounds, std::uint64_t seed) {
  proto::RandomBabblerFactory babbler(24);
  return runCanonical(babbler, std::move(adversary), rounds, seed);
}

TEST(GoldenCorpus, GammaCFloodNetworkReferenceRun) {
  util::Rng rng(31);
  const cc::Instance inst = cc::randomInstance(2, 9, rng, /*force=*/1);
  const lb::CFloodNetwork network(inst);
  expectGolden("gamma_cflood_network",
               runLowerBoundReference(network.referenceAdversary(),
                                      network.horizon(), /*seed=*/0xB001));
}

TEST(GoldenCorpus, LambdaConsensusNetworkDisj1ReferenceRun) {
  util::Rng rng(33);
  const cc::Instance inst = cc::randomInstance(2, 9, rng, /*force=*/1);
  const lb::ConsensusNetwork network(inst);
  expectGolden("lambda_consensus_network_disj1",
               runLowerBoundReference(network.referenceAdversary(),
                                      network.horizon(), /*seed=*/0xB002));
}

TEST(GoldenCorpus, UpsilonConsensusNetworkDisj0ReferenceRun) {
  util::Rng rng(35);
  const cc::Instance inst = cc::randomInstance(2, 9, rng, /*force=*/0);
  const lb::ConsensusNetwork network(inst);
  expectGolden("upsilon_consensus_network_disj0",
               runLowerBoundReference(network.referenceAdversary(),
                                      network.horizon(), /*seed=*/0xB003));
}

}  // namespace
}  // namespace dynet
