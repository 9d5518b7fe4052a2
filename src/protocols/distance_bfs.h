// Distance computation in broadcast CONGEST (EngineConfig::duplex).
//
// The source paper measures the cost of *not knowing* the diameter; this
// family computes it (ROADMAP item 4, docs/DIAMETER.md).  All schedules are
// fixed functions of the round number — no message tags, no coin flips — so
// every run is deterministic given (factory, adversary, seed) and the
// fuzz-diff matrix can pin the engine paths byte-identically.
//
//   diam_exact    — all-source BFS with smallest-(dist, source)-first token
//                   pipelining (Holzer–Wattenhofer SPAA'12 style): every node
//                   learns d(s, v) for all s within the 2n+2-round phase-1
//                   budget (pipelining completes in n + D rounds), then a
//                   (ecc, argmax-id) max-flood yields the exact diameter at
//                   every node.  Total 3n+3 rounds = O(n).
//   diam_2approx  — one BFS from node 0 plus a max-flood of (dist, id):
//                   outputs ecc(0), with ecc(0) <= D <= 2*ecc(0).  2n+2
//                   rounds.
//
// Both are meaningful only on static connected topologies (the gadget
// families of src/lowerbound/distance_lb.h and the static adversary zoo);
// under dynamic or faulty adversaries they stay deterministic and safe but
// their outputs carry no guarantee.  Messages are range-checked on decode,
// so corrupted deliveries (faults with deliver_corrupted) never throw.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/process.h"

namespace dynet::proto {

/// Pipelined multi-source BFS lane: per-source best distance plus a pending
/// queue ordered by (dist, source).  Each round the owner broadcasts and
/// retires the smallest pending pair; improved pairs re-enter the queue.
/// Shared by diam_exact (all sources) and diam_32approx (sampled sources).
class BfsPipeline {
 public:
  void reset(sim::NodeId num_nodes);
  /// Installs (source, 0) as known and pending.
  void seed(sim::NodeId source);
  bool hasPending() const { return !queue_.empty(); }
  /// Pops the smallest (dist, source) pending pair.
  std::pair<int, sim::NodeId> popSmallest();
  /// Adopts dist(source) = d if it improves the current bound; improved
  /// entries become pending again.  Returns true on improvement.
  bool relax(sim::NodeId source, int d);
  /// -1 while unknown.
  int dist(sim::NodeId source) const {
    return dist_[static_cast<std::size_t>(source)];
  }
  int knownCount() const { return known_; }
  int maxKnownDist() const;
  std::uint64_t digest(std::uint64_t h) const;

 private:
  std::vector<std::int32_t> dist_;
  std::vector<char> pending_;
  std::set<std::pair<std::int32_t, sim::NodeId>> queue_;
  int known_ = 0;
};

/// Exact diameter + per-node eccentricities, 3n+3 rounds.
class DiamExactProcess : public sim::Process {
 public:
  DiamExactProcess(sim::NodeId node, sim::NodeId num_nodes);

  /// Phase-1 budget: pipelined all-source BFS needs n + D <= 2n - 1 rounds;
  /// the +3 slack keeps the bound a clean affine function of n.
  static sim::Round phase1Rounds(sim::NodeId n) { return 2 * n + 2; }
  /// Phase-2 budget: a max-flood converges in D <= n - 1 rounds.
  static sim::Round phase2Rounds(sim::NodeId n) { return n + 1; }
  /// Fixed termination round; the round-bound property of
  /// tests/diameter_test.cpp asserts this stays <= 4n.
  static sim::Round scheduleRounds(sim::NodeId n) {
    return phase1Rounds(n) + phase2Rounds(n);
  }

  sim::Action onRound(sim::Round round, util::CoinStream& coins) override;
  void onDeliver(sim::Round round, bool sent,
                 std::span<const sim::Message> received) override;
  bool done() const override { return done_; }
  /// The diameter (valid once done).
  std::uint64_t output() const override {
    return static_cast<std::uint64_t>(best_ecc_ < 0 ? 0 : best_ecc_);
  }
  std::uint64_t stateDigest() const override;
  void exportMetrics(
      std::vector<std::pair<std::string, double>>& out) const override;

  /// This node's eccentricity (valid once phase 1 closed).
  int eccentricity() const { return ecc_; }
  /// Smallest node id attaining the diameter (valid once done).
  sim::NodeId argmaxNode() const { return best_node_; }
  int distanceTo(sim::NodeId s) const { return pipe_.dist(s); }

 private:
  void ensurePhase2(sim::Round round);

  sim::NodeId node_;
  sim::NodeId n_;
  int width_;
  BfsPipeline pipe_;
  sim::Round last_update_round_ = 0;
  bool phase2_init_ = false;
  int ecc_ = -1;
  int best_ecc_ = -1;
  sim::NodeId best_node_ = -1;
  bool done_ = false;
};

class DiamExactFactory : public sim::ProcessFactory {
 public:
  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;
};

/// 2-approximation: ecc(0) <= D <= 2*ecc(0).  2n+2 rounds.
class Diam2ApproxProcess : public sim::Process {
 public:
  Diam2ApproxProcess(sim::NodeId node, sim::NodeId num_nodes,
                     sim::NodeId source);

  static sim::Round phase1Rounds(sim::NodeId n) { return n + 1; }
  static sim::Round scheduleRounds(sim::NodeId n) {
    return phase1Rounds(n) + n + 1;
  }

  sim::Action onRound(sim::Round round, util::CoinStream& coins) override;
  void onDeliver(sim::Round round, bool sent,
                 std::span<const sim::Message> received) override;
  bool done() const override { return done_; }
  /// The estimate ecc(source) (valid once done).
  std::uint64_t output() const override {
    return static_cast<std::uint64_t>(best_dist_ < 0 ? 0 : best_dist_);
  }
  std::uint64_t stateDigest() const override;
  void exportMetrics(
      std::vector<std::pair<std::string, double>>& out) const override;

  int distFromSource() const { return dist_; }

 private:
  void ensurePhase2(sim::Round round);

  sim::NodeId node_;
  sim::NodeId n_;
  int width_;
  sim::NodeId source_;
  int dist_;
  bool phase2_init_ = false;
  int best_dist_ = -1;
  sim::NodeId best_node_ = -1;
  bool done_ = false;
};

class Diam2ApproxFactory : public sim::ProcessFactory {
 public:
  explicit Diam2ApproxFactory(sim::NodeId source = 0) : source_(source) {}
  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;

 private:
  sim::NodeId source_;
};

/// Decodes a fixed-shape message of `fields` width-`width` values, each
/// required to lie in [0, bound).  Returns false (leaving out untouched) on
/// any size or range mismatch — the corruption-tolerance contract of the
/// fault injector's deliver_corrupted mode.
bool decodeFields(const sim::Message& msg, int width, int fields,
                  std::uint64_t bound, std::uint64_t* out);

/// True iff a decoded BFS distance d may be adopted as d + 1 at an n-node
/// receiver: d + 1 < n, the longest shortest path of any connected n-node
/// graph.  A larger d only arrives through corrupted deliveries or
/// restart-reset chains, and storing d + 1 = n would overflow the
/// bitWidthFor(n)-bit field on the next broadcast.
inline bool distanceExtends(std::uint64_t d, sim::NodeId n) {
  return d + 1 < static_cast<std::uint64_t>(n);
}

}  // namespace dynet::proto
