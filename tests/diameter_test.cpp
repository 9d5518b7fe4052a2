// Property-based round-bound layer for the diameter protocol suite
// (docs/DIAMETER.md): on randomized connected static graphs, across seeds,
// sizes, and the full engine-path matrix (factory or createProcesses x
// bare or RebuildEveryRound adversary, all under EngineConfig::duplex),
//
//   diam_exact     reproduces the all-pairs BFS oracle exactly — diameter,
//                  per-node eccentricities, per-source distances, and the
//                  smallest argmax node — in scheduleRounds(n) <= 4n rounds;
//   diam_2approx   outputs exactly ecc(source), which brackets the diameter
//                  as ecc <= D <= 2*ecc;
//   diam_32approx  outputs D-hat with floor(2D/3) <= D-hat <= D (the <= D
//                  side is unconditional — every value is a true distance).
//
// The gadget families then feed the protocols the instances they were built
// to decide: diam_exact must read 4 vs 5 off AchBitGadget and 2p+2 vs 2p+3
// off BkApproxGadget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adversary/static_adversaries.h"
#include "lowerbound/distance_lb.h"
#include "net/diameter.h"
#include "net/graph.h"
#include "protocols/diameter_approx.h"
#include "protocols/distance_bfs.h"
#include "sim/engine.h"
#include "sim/message.h"
#include "util/rng.h"

namespace dynet {
namespace {

/// Random connected graph: a random recursive tree plus up to n extra
/// deduplicated chords.  Tree edges guarantee connectivity; chords give the
/// BFS pipelines non-tree shortest paths to disagree about.
net::GraphPtr randomConnectedGraph(sim::NodeId n, std::uint64_t seed) {
  util::Rng rng(util::mix64(seed ^ 0xD1A6ULL));
  std::set<std::pair<sim::NodeId, sim::NodeId>> edges;
  for (sim::NodeId v = 1; v < n; ++v) {
    const auto parent =
        static_cast<sim::NodeId>(rng.below(static_cast<std::uint64_t>(v)));
    edges.insert({parent, v});
  }
  const auto extra = rng.below(static_cast<std::uint64_t>(n));
  for (std::uint64_t i = 0; i < extra; ++i) {
    const auto a =
        static_cast<sim::NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    const auto b =
        static_cast<sim::NodeId>(rng.below(static_cast<std::uint64_t>(n)));
    if (a != b) {
      edges.insert({std::min(a, b), std::max(a, b)});
    }
  }
  std::vector<net::Edge> list;
  list.reserve(edges.size());
  for (const auto& [a, b] : edges) {
    list.push_back({a, b});
  }
  return std::make_shared<net::Graph>(n, std::move(list));
}

struct Oracle {
  std::vector<int> ecc;
  int diameter = 0;
  sim::NodeId argmax = 0;  // smallest node attaining the diameter
};

Oracle oracleFor(const net::Graph& g) {
  Oracle o;
  o.ecc = net::staticEccentricities(g);
  for (std::size_t v = 0; v < o.ecc.size(); ++v) {
    if (o.ecc[v] > o.diameter) {
      o.diameter = o.ecc[v];
      o.argmax = static_cast<sim::NodeId>(v);
    }
  }
  return o;
}

/// Runs `factory` on the static graph under duplex, built through the
/// factory constructor (`soa`) or createProcesses, on the adversary itself
/// (`deltas`) or wrapped in RebuildEveryRound, and hands the finished
/// engine to `inspect`.
template <typename Inspect>
void runDiam(const sim::ProcessFactory& factory, net::GraphPtr g,
             sim::Round max_rounds, std::uint64_t seed, bool soa,
             bool deltas, Inspect&& inspect) {
  sim::EngineConfig config;
  config.max_rounds = max_rounds;
  config.duplex = true;
  const sim::NodeId n = g->numNodes();
  std::unique_ptr<sim::Adversary> adversary =
      std::make_unique<adv::StaticAdversary>(std::move(g));
  if (!deltas) {
    adversary = std::make_unique<sim::RebuildEveryRound>(std::move(adversary));
  }
  sim::Engine engine =
      soa ? sim::Engine(factory, std::move(adversary), config, seed)
          : sim::Engine(sim::createProcesses(factory, n), std::move(adversary),
                        config, seed);
  const sim::RunResult r = engine.run();
  inspect(engine, r);
}

constexpr sim::NodeId kSizes[] = {8, 17, 24};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

TEST(DiamExact, MatchesOracleAcrossSeedsSizesAndEngineMatrix) {
  proto::DiamExactFactory factory;
  for (const sim::NodeId n : kSizes) {
    const sim::Round bound = proto::DiamExactProcess::scheduleRounds(n);
    ASSERT_LE(bound, 4 * n) << "round bound must stay O(n) with c = 4";
    for (const std::uint64_t seed : kSeeds) {
      const net::GraphPtr g = randomConnectedGraph(n, seed);
      const Oracle oracle = oracleFor(*g);
      std::vector<std::vector<int>> dist;
      for (sim::NodeId s = 0; s < n; ++s) {
        dist.push_back(net::bfsDistances(*g, s));
      }
      for (int combo = 0; combo < 4; ++combo) {
        runDiam(factory, g, bound + 4, seed, (combo & 2) != 0,
                (combo & 1) != 0,
                [&](sim::Engine& engine, const sim::RunResult& r) {
                  ASSERT_TRUE(r.all_done)
                      << "n=" << n << " seed=" << seed << " combo=" << combo;
                  EXPECT_LE(r.all_done_round, bound);
                  for (sim::NodeId v = 0; v < n; ++v) {
                    const auto& p =
                        dynamic_cast<const proto::DiamExactProcess&>(
                            engine.process(v));
                    EXPECT_EQ(p.output(),
                              static_cast<std::uint64_t>(oracle.diameter))
                        << "node " << v << " n=" << n << " seed=" << seed;
                    EXPECT_EQ(p.eccentricity(),
                              oracle.ecc[static_cast<std::size_t>(v)])
                        << "node " << v;
                    EXPECT_EQ(p.argmaxNode(), oracle.argmax) << "node " << v;
                    for (sim::NodeId s = 0; s < n; ++s) {
                      EXPECT_EQ(p.distanceTo(s),
                                dist[static_cast<std::size_t>(s)]
                                    [static_cast<std::size_t>(v)])
                          << "node " << v << " source " << s;
                    }
                  }
                });
      }
    }
  }
}

TEST(Diam2Approx, EstimateIsSourceEccentricityAndBracketsDiameter) {
  proto::Diam2ApproxFactory factory(0);
  for (const sim::NodeId n : kSizes) {
    const sim::Round bound = proto::Diam2ApproxProcess::scheduleRounds(n);
    ASSERT_LE(bound, 2 * n + 2);
    for (const std::uint64_t seed : kSeeds) {
      const net::GraphPtr g = randomConnectedGraph(n, seed);
      const Oracle oracle = oracleFor(*g);
      for (int combo = 0; combo < 4; ++combo) {
        runDiam(factory, g, bound + 4, seed, (combo & 2) != 0,
                (combo & 1) != 0,
                [&](sim::Engine& engine, const sim::RunResult& r) {
                  ASSERT_TRUE(r.all_done)
                      << "n=" << n << " seed=" << seed << " combo=" << combo;
                  EXPECT_LE(r.all_done_round, bound);
                  const auto ecc0 = static_cast<std::uint64_t>(oracle.ecc[0]);
                  for (sim::NodeId v = 0; v < n; ++v) {
                    const std::uint64_t est = engine.process(v).output();
                    EXPECT_EQ(est, ecc0) << "node " << v;
                    EXPECT_LE(est, static_cast<std::uint64_t>(oracle.diameter));
                    EXPECT_GE(2 * est,
                              static_cast<std::uint64_t>(oracle.diameter));
                  }
                });
      }
    }
  }
}

TEST(Diam32Approx, EstimateWithinTwoThirdsBracket) {
  for (const sim::NodeId n : kSizes) {
    const sim::Round bound = proto::Diam32ApproxProcess::scheduleRounds(n);
    for (const std::uint64_t seed : kSeeds) {
      proto::Diam32ApproxFactory factory(seed);
      const net::GraphPtr g = randomConnectedGraph(n, seed);
      const Oracle oracle = oracleFor(*g);
      for (int combo = 0; combo < 4; ++combo) {
        runDiam(factory, g, bound + 4, seed, (combo & 2) != 0,
                (combo & 1) != 0,
                [&](sim::Engine& engine, const sim::RunResult& r) {
                  ASSERT_TRUE(r.all_done)
                      << "n=" << n << " seed=" << seed << " combo=" << combo;
                  EXPECT_LE(r.all_done_round, bound);
                  for (sim::NodeId v = 0; v < n; ++v) {
                    const auto est =
                        static_cast<int>(engine.process(v).output());
                    EXPECT_LE(est, oracle.diameter) << "node " << v;
                    EXPECT_GE(est, 2 * oracle.diameter / 3) << "node " << v;
                    EXPECT_EQ(est, static_cast<int>(engine.process(0).output()))
                        << "nodes must agree on D-hat";
                  }
                });
      }
    }
  }
}

TEST(Diam32Approx, SampleIsDeterministicSortedAndSized) {
  for (const sim::NodeId n : {4, 20, 100, 400}) {
    const sim::NodeId k = proto::Diam32ApproxProcess::sampleSize(n);
    EXPECT_GE(k, 1);
    EXPECT_LE(k, n);
    const auto s1 = proto::Diam32ApproxProcess::sampleSources(n, 77);
    const auto s2 = proto::Diam32ApproxProcess::sampleSources(n, 77);
    EXPECT_EQ(s1, s2) << "sample must be a pure function of (n, seed)";
    EXPECT_EQ(static_cast<sim::NodeId>(s1.size()), k);
    EXPECT_TRUE(std::is_sorted(s1.begin(), s1.end()));
    EXPECT_TRUE(std::adjacent_find(s1.begin(), s1.end()) == s1.end());
    for (const sim::NodeId v : s1) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, n);
    }
  }
}

// ------------------------------------------------ gadget decision checks

TEST(DiamExact, ReadsDisjointnessOffTheAchGadget) {
  proto::DiamExactFactory factory;
  for (const bool intersect : {false, true}) {
    const lb::AchBitGadget gadget(36, /*width=*/0, /*seed=*/5, intersect);
    const sim::Round bound = proto::DiamExactProcess::scheduleRounds(36);
    runDiam(factory, gadget.graph(), bound + 4, 9, true, true,
            [&](sim::Engine& engine, const sim::RunResult& r) {
              ASSERT_TRUE(r.all_done);
              EXPECT_EQ(engine.process(0).output(),
                        static_cast<std::uint64_t>(intersect ? 5 : 4));
            });
  }
}

TEST(DiamExact, ReadsOrthogonalityOffTheBkGadget) {
  proto::DiamExactFactory factory;
  for (const int stretch : {0, 2}) {
    for (const bool orthogonal : {false, true}) {
      const lb::BkApproxGadget gadget(36, /*width=*/0, stretch, /*seed=*/5,
                                      orthogonal);
      const sim::Round bound = proto::DiamExactProcess::scheduleRounds(36);
      runDiam(factory, gadget.graph(), bound + 4, 9, true, true,
              [&](sim::Engine& engine, const sim::RunResult& r) {
                ASSERT_TRUE(r.all_done);
                EXPECT_EQ(engine.process(0).output(),
                          static_cast<std::uint64_t>(gadget.expectedDiameter()))
                    << "stretch=" << stretch
                    << " orthogonal=" << orthogonal;
              });
    }
  }
}

// ---------------------------------------------------- decode tolerance

TEST(DecodeFields, RejectsWrongShapeAndOutOfRange) {
  const int width = 5;
  const sim::Message ok =
      sim::MessageBuilder().put(12, width).put(7, width).build();
  std::uint64_t out[2] = {0, 0};
  EXPECT_TRUE(proto::decodeFields(ok, width, 2, 16, out));
  EXPECT_EQ(out[0], 12u);
  EXPECT_EQ(out[1], 7u);
  // Field value 12 >= bound 10: reject.
  EXPECT_FALSE(proto::decodeFields(ok, width, 2, 10, out));
  // Wrong field count for the bit size: reject.
  EXPECT_FALSE(proto::decodeFields(ok, width, 1, 16, out));
  // Wrong width: reject.
  EXPECT_FALSE(proto::decodeFields(ok, width + 1, 2, 16, out));
  // Empty message: reject.
  EXPECT_FALSE(proto::decodeFields(sim::Message(), width, 2, 16, out));
}

// ------------------------------------------- relayed-distance range check
//
// A BFS distance d decoded off the wire is adopted as d + 1 only when
// d + 1 < n (proto::distanceExtends).  Each test hands one process at
// n = 16 a message carrying distance 15 in the phase under test, then a
// valid distance 3 one round later (so the phase provably listened), and
// drives it through its whole schedule with empty inboxes otherwise.  The
// stored 16 used to overflow the 4-bit field on the next broadcast; now
// nothing throws and no stored distance reaches n.

constexpr sim::NodeId kRangeN = 16;  // bitWidthFor(16) = 4: values 0..15
constexpr int kRangeWidth = 4;

sim::Message fields(std::initializer_list<std::uint64_t> values) {
  sim::MessageBuilder b;
  for (const std::uint64_t v : values) {
    b.put(v, kRangeWidth);
  }
  return b.build();
}

/// Runs a lone process through rounds 1..last as the engine would (onRound,
/// then onDeliver), handing it each (round, message) of `deliveries` in its
/// round; every other inbox is empty.
void driveLone(
    sim::Process& p, sim::Round last,
    std::initializer_list<std::pair<sim::Round, sim::Message>> deliveries) {
  for (sim::Round r = 1; r <= last; ++r) {
    util::CoinStream coins(0, 0, static_cast<std::uint64_t>(r));
    const sim::Action a = p.onRound(r, coins);
    std::vector<sim::Message> inbox;
    for (const auto& [at, msg] : deliveries) {
      if (at == r) {
        inbox.push_back(msg);
      }
    }
    p.onDeliver(r, a.send, inbox);
  }
}

TEST(DiamExact, RejectsRelayedDistanceReachingN) {
  // Node 0 pops its own (0, 0) entry in round 1; the (15 + 1, 5) entry
  // would pop next.
  proto::DiamExactProcess p(0, kRangeN);
  EXPECT_NO_THROW(driveLone(p, proto::DiamExactProcess::scheduleRounds(kRangeN),
                            {{1, fields({5, 15})}, {2, fields({6, 3})}}));
  for (sim::NodeId s = 0; s < kRangeN; ++s) {
    EXPECT_LT(p.distanceTo(s), kRangeN) << "source " << s;
  }
  EXPECT_EQ(p.distanceTo(5), -1);
  EXPECT_EQ(p.distanceTo(6), 4);
  EXPECT_EQ(p.eccentricity(), 4);
}

TEST(Diam2Approx, RejectsRelayedDistanceReachingN) {
  proto::Diam2ApproxProcess p(3, kRangeN, /*source=*/0);
  EXPECT_NO_THROW(
      driveLone(p, proto::Diam2ApproxProcess::scheduleRounds(kRangeN),
                {{1, fields({15})}, {2, fields({3})}}));
  EXPECT_EQ(p.distFromSource(), 4);
  EXPECT_EQ(p.output(), 4u);
}

/// First round of Diam32ApproxProcess phase p (1..5) at kRangeN: phase p
/// spans (e(p - 1), e(p)], with the phase end rounds e1..e4 of
/// diameter_approx.h.
sim::Round diam32PhaseStart(int phase) {
  const sim::Round n = kRangeN;
  const sim::Round k = proto::Diam32ApproxProcess::sampleSize(kRangeN);
  const sim::Round ends[] = {0, k + n + 2, 2 * n + k + 3, 3 * n + k + 4,
                             4 * n + 2 * k + 6};
  return ends[phase - 1] + 1;
}

/// estimate() is the running maximum over every distance the process
/// stored (phase-1 sources, d(w, v), phase-5 sources), so bounding it
/// bounds them all.
void expectDiam32Estimate(const proto::Diam32ApproxProcess& p,
                          int expected) {
  EXPECT_LT(p.estimate(), kRangeN);
  EXPECT_EQ(p.estimate(), expected);
}

TEST(Diam32Approx, RejectsRelayedDistanceReachingNInPhase1) {
  const std::vector<sim::NodeId> sources =
      proto::Diam32ApproxProcess::sampleSources(kRangeN, 7);
  ASSERT_GE(sources.size(), 2u);
  // A non-source node: its phase-1 queue holds only what it is told.
  sim::NodeId node = 0;
  while (std::binary_search(sources.begin(), sources.end(), node)) {
    ++node;
  }
  proto::Diam32ApproxProcess p(node, kRangeN, sources);
  const auto s0 = static_cast<std::uint64_t>(sources[0]);
  const auto s1 = static_cast<std::uint64_t>(sources[1]);
  EXPECT_NO_THROW(
      driveLone(p, proto::Diam32ApproxProcess::scheduleRounds(kRangeN),
                {{1, fields({s0, 15})}, {2, fields({s1, 3})}}));
  expectDiam32Estimate(p, 4);
}

TEST(Diam32Approx, RejectsRelayedDistanceReachingNInPhase3) {
  const std::vector<sim::NodeId> sources =
      proto::Diam32ApproxProcess::sampleSources(kRangeN, 7);
  proto::Diam32ApproxProcess p(3, kRangeN, sources);
  // Phase 2 elects w = 9 (farther from S than node 3 believes itself), so
  // node 3 enters phase 3 without a distance to w.
  const sim::Round p3 = diam32PhaseStart(3);
  EXPECT_NO_THROW(
      driveLone(p, proto::Diam32ApproxProcess::scheduleRounds(kRangeN),
                {{diam32PhaseStart(2), fields({12, 9})},
                 {p3, fields({15})},
                 {p3 + 1, fields({3})}}));
  std::vector<std::pair<std::string, double>> metrics;
  p.exportMetrics(metrics);
  EXPECT_EQ(metrics[2], std::make_pair(std::string("diam32/w"), 9.0));
  EXPECT_EQ(metrics[3], std::make_pair(std::string("diam32/dist_w"), 4.0));
  expectDiam32Estimate(p, 4);
}

TEST(Diam32Approx, RejectsRelayedDistanceReachingNInPhase5) {
  // Node 3 is its own w, so phase 5 seeds (0, 3) and pops it first; the
  // (15 + 1, 5) entry would pop next.
  proto::Diam32ApproxProcess p(
      3, kRangeN, proto::Diam32ApproxProcess::sampleSources(kRangeN, 7));
  const sim::Round p5 = diam32PhaseStart(5);
  EXPECT_NO_THROW(
      driveLone(p, proto::Diam32ApproxProcess::scheduleRounds(kRangeN),
                {{p5, fields({5, 15})}, {p5 + 1, fields({6, 3})}}));
  expectDiam32Estimate(p, 4);
}

}  // namespace
}  // namespace dynet
