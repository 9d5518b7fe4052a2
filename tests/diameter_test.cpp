// Property-based round-bound layer for the diameter protocol suite
// (docs/DIAMETER.md): on randomized connected static graphs, across seeds,
// sizes, and the full {soa_state, topology_deltas} engine matrix (all
// under EngineConfig::duplex),
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
#include <memory>
#include <set>
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

/// Runs `factory` on the static graph under duplex with the given engine
/// flags and hands the finished engine to `inspect`.
template <typename Inspect>
void runDiam(const sim::ProcessFactory& factory, net::GraphPtr g,
             sim::Round max_rounds, std::uint64_t seed, bool soa,
             bool deltas, Inspect&& inspect) {
  sim::EngineConfig config;
  config.max_rounds = max_rounds;
  config.duplex = true;
  config.soa_state = soa;
  config.topology_deltas = deltas;
  sim::Engine engine(factory,
                     std::make_unique<adv::StaticAdversary>(std::move(g)),
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

}  // namespace
}  // namespace dynet
