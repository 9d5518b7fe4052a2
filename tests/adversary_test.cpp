// Adversary zoo invariants: connectivity every round, determinism per
// (seed, round), and the adaptive choke's sender/receiver separation.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/dynamic_adversaries.h"
#include "adversary/static_adversaries.h"
#include "net/diameter.h"

namespace dynet::adv {
namespace {

using sim::Action;
using sim::NodeId;
using sim::Round;

std::vector<Action> allReceiving(NodeId n) {
  return std::vector<Action>(static_cast<std::size_t>(n));
}

class ZooConnectivity
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {
 public:
  std::unique_ptr<sim::Adversary> make(NodeId n) const {
    const std::string name = std::get<0>(GetParam());
    if (name == "random_tree") {
      return std::make_unique<RandomTreeAdversary>(n, 42);
    }
    if (name == "rotating_star") {
      return std::make_unique<RotatingStarAdversary>(n);
    }
    if (name == "shuffle_path") {
      return std::make_unique<ShufflePathAdversary>(n, 42);
    }
    if (name == "interval") {
      return std::make_unique<IntervalAdversary>(n, 5, 42);
    }
    return std::make_unique<SenderChokeAdversary>(n);
  }
};

TEST_P(ZooConnectivity, ConnectedEveryRound) {
  const auto n = static_cast<NodeId>(std::get<1>(GetParam()));
  auto adv = make(n);
  const auto actions = allReceiving(n);
  for (Round r = 1; r <= 40; ++r) {
    auto g = adv->topology(r, {actions});
    ASSERT_TRUE(g->connected()) << "round " << r;
    ASSERT_EQ(g->numNodes(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooConnectivity,
    ::testing::Combine(::testing::Values("random_tree", "rotating_star",
                                         "shuffle_path", "interval",
                                         "sender_choke"),
                       ::testing::Values(2, 3, 17, 64)));

TEST(RandomTree, DeterministicPerRound) {
  RandomTreeAdversary a(20, 7);
  RandomTreeAdversary b(20, 7);
  const auto actions = allReceiving(20);
  for (Round r = 1; r <= 10; ++r) {
    auto ga = a.topology(r, {actions});
    auto gb = b.topology(r, {actions});
    ASSERT_EQ(ga->edges().size(), gb->edges().size());
    for (std::size_t i = 0; i < ga->edges().size(); ++i) {
      EXPECT_EQ(ga->edges()[i], gb->edges()[i]);
    }
  }
}

TEST(RandomTree, ChangesAcrossRounds) {
  RandomTreeAdversary a(20, 7);
  const auto actions = allReceiving(20);
  auto g1 = a.topology(1, {actions});
  auto g2 = a.topology(2, {actions});
  bool same = g1->edges().size() == g2->edges().size();
  if (same) {
    for (std::size_t i = 0; i < g1->edges().size(); ++i) {
      same = same && g1->edges()[i] == g2->edges()[i];
    }
  }
  EXPECT_FALSE(same);
}

TEST(Interval, StableWithinEpoch) {
  IntervalAdversary a(16, 4, 3);
  const auto actions = allReceiving(16);
  auto g1 = a.topology(1, {actions});
  auto g4 = a.topology(4, {actions});
  auto g5 = a.topology(5, {actions});
  EXPECT_EQ(g1.get(), g4.get());
  EXPECT_NE(g1.get(), g5.get());
}

TEST(SenderChoke, SingleCrossingEdge) {
  const NodeId n = 10;
  SenderChokeAdversary adv(n);
  std::vector<Action> actions(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; v += 2) {
    actions[static_cast<std::size_t>(v)].send = true;  // evens send
  }
  auto g = adv.topology(1, {actions});
  int crossing = 0;
  for (const auto& e : g->edges()) {
    const bool sa = actions[static_cast<std::size_t>(e.a)].send;
    const bool sb = actions[static_cast<std::size_t>(e.b)].send;
    if (sa != sb) {
      ++crossing;
    }
  }
  EXPECT_EQ(crossing, 1);
  EXPECT_TRUE(g->connected());
}

TEST(SenderChoke, AllSendersStillConnected) {
  const NodeId n = 6;
  SenderChokeAdversary adv(n);
  std::vector<Action> actions(static_cast<std::size_t>(n));
  for (auto& a : actions) {
    a.send = true;
  }
  auto g = adv.topology(1, {actions});
  EXPECT_TRUE(g->connected());
}

TEST(RotatingStar, CausalDiameterIsThetaN) {
  // The rotating star is the canonical "small per-round diameter, large
  // dynamic diameter" example: influence crawls along the center schedule.
  const NodeId n = 12;
  RotatingStarAdversary adv(n);
  const auto actions = allReceiving(n);
  net::TopologySeq topo;
  for (Round r = 1; r <= 3 * n; ++r) {
    topo.push_back(adv.topology(r, {actions}));
  }
  const int ecc = net::allSourcesEccentricity(topo, 0);
  ASSERT_GT(ecc, 0);
  EXPECT_GE(ecc, n - 1);
  EXPECT_LE(ecc, n + 1);
}

TEST(AnchoredStar, ConstantCausalDiameterUnderChurn) {
  const NodeId n = 12;
  AnchoredStarAdversary adv(n, 3);
  const auto actions = allReceiving(n);
  net::TopologySeq topo;
  for (Round r = 1; r <= 10; ++r) {
    topo.push_back(adv.topology(r, {actions}));
    ASSERT_TRUE(topo.back()->connected());
  }
  EXPECT_EQ(net::allSourcesEccentricity(topo, 0), 2);
}

TEST(AnchoredStar, TopologyChurns) {
  AnchoredStarAdversary adv(16, 3);
  const auto actions = allReceiving(16);
  auto g1 = adv.topology(1, {actions});
  auto g2 = adv.topology(2, {actions});
  bool same = g1->numEdges() == g2->numEdges();
  if (same) {
    for (std::size_t i = 0; i < g1->edges().size(); ++i) {
      same = same && g1->edges()[i] == g2->edges()[i];
    }
  }
  EXPECT_FALSE(same);
}

TEST(ShufflePath, HighDiameterShape) {
  ShufflePathAdversary adv(32, 11);
  const auto actions = allReceiving(32);
  net::TopologySeq topo;
  for (Round r = 1; r <= 64; ++r) {
    topo.push_back(adv.topology(r, {actions}));
  }
  // Fresh random permutations mix fast; diameter is far below the static
  // path's 31 but still at least a few rounds.
  const int d = net::allSourcesEccentricity(topo, 0);
  EXPECT_GT(d, 1);
  EXPECT_LT(d, 31);
}

TEST(RandomAttachTree, IsTree) {
  util::Rng rng(5);
  for (const NodeId n : {1, 2, 10, 100}) {
    const net::Graph g(n, randomAttachTree(n, rng));
    EXPECT_EQ(g.numEdges(), static_cast<std::size_t>(n - 1));
    EXPECT_TRUE(g.connected());
  }
}

}  // namespace
}  // namespace dynet::adv
