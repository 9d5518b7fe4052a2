#include "protocols/distance_bfs.h"

#include <algorithm>

#include "sim/message.h"
#include "util/bitio.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::proto {

void BfsPipeline::reset(sim::NodeId num_nodes) {
  dist_.assign(static_cast<std::size_t>(num_nodes), -1);
  pending_.assign(static_cast<std::size_t>(num_nodes), 0);
  queue_.clear();
  known_ = 0;
}

void BfsPipeline::seed(sim::NodeId source) {
  const auto si = static_cast<std::size_t>(source);
  if (dist_[si] == 0) {
    return;
  }
  if (dist_[si] < 0) {
    ++known_;
  }
  if (pending_[si] != 0) {
    queue_.erase({dist_[si], source});
  }
  dist_[si] = 0;
  pending_[si] = 1;
  queue_.insert({0, source});
}

std::pair<int, sim::NodeId> BfsPipeline::popSmallest() {
  DYNET_CHECK(!queue_.empty()) << "popSmallest on empty pipeline";
  const auto it = queue_.begin();
  const std::pair<int, sim::NodeId> out{it->first, it->second};
  pending_[static_cast<std::size_t>(out.second)] = 0;
  queue_.erase(it);
  return out;
}

bool BfsPipeline::relax(sim::NodeId source, int d) {
  const auto si = static_cast<std::size_t>(source);
  if (dist_[si] >= 0 && dist_[si] <= d) {
    return false;
  }
  if (dist_[si] < 0) {
    ++known_;
  } else if (pending_[si] != 0) {
    queue_.erase({dist_[si], source});
  }
  dist_[si] = d;
  pending_[si] = 1;
  queue_.insert({d, source});
  return true;
}

int BfsPipeline::maxKnownDist() const {
  int best = -1;
  for (const std::int32_t d : dist_) {
    best = std::max(best, static_cast<int>(d));
  }
  return best;
}

std::uint64_t BfsPipeline::digest(std::uint64_t h) const {
  for (std::size_t i = 0; i < dist_.size(); ++i) {
    h = util::hashCombine(h, static_cast<std::uint64_t>(dist_[i] + 1));
    h = util::hashCombine(h, static_cast<std::uint64_t>(pending_[i]));
  }
  return h;
}

bool decodeFields(const sim::Message& msg, int width, int fields,
                  std::uint64_t bound, std::uint64_t* out) {
  if (msg.bitSize() != width * fields) {
    return false;
  }
  sim::MessageReader reader(msg);
  for (int i = 0; i < fields; ++i) {
    const std::uint64_t v = reader.get(width);
    if (v >= bound) {
      return false;
    }
    out[i] = v;
  }
  return true;
}

// --- diam_exact -------------------------------------------------------------

DiamExactProcess::DiamExactProcess(sim::NodeId node, sim::NodeId num_nodes)
    : node_(node),
      n_(num_nodes),
      width_(util::bitWidthFor(static_cast<std::uint64_t>(num_nodes))) {
  pipe_.reset(n_);
  pipe_.seed(node_);
}

void DiamExactProcess::ensurePhase2(sim::Round round) {
  if (phase2_init_ || round <= phase1Rounds(n_)) {
    return;
  }
  phase2_init_ = true;
  // Unreached sources (impossible on a connected static topology inside the
  // phase-1 budget, possible under churn or faults) simply don't contribute.
  ecc_ = std::max(0, pipe_.maxKnownDist());
  best_ecc_ = ecc_;
  best_node_ = node_;
}

sim::Action DiamExactProcess::onRound(sim::Round round,
                                      util::CoinStream& /*coins*/) {
  sim::Action action;
  if (round <= phase1Rounds(n_)) {
    if (pipe_.hasPending()) {
      const auto [d, s] = pipe_.popSmallest();
      action.send = true;
      action.msg = sim::MessageBuilder()
                       .put(static_cast<std::uint64_t>(s), width_)
                       .put(static_cast<std::uint64_t>(d), width_)
                       .build();
    }
    return action;
  }
  ensurePhase2(round);
  action.send = true;
  action.msg = sim::MessageBuilder()
                   .put(static_cast<std::uint64_t>(best_ecc_), width_)
                   .put(static_cast<std::uint64_t>(best_node_), width_)
                   .build();
  return action;
}

void DiamExactProcess::onDeliver(sim::Round round, bool /*sent*/,
                                 std::span<const sim::Message> received) {
  std::uint64_t f[2];
  if (round <= phase1Rounds(n_)) {
    for (const sim::Message& msg : received) {
      if (!decodeFields(msg, width_, 2, static_cast<std::uint64_t>(n_), f) ||
          !distanceExtends(f[1], n_)) {
        continue;
      }
      if (pipe_.relax(static_cast<sim::NodeId>(f[0]),
                      static_cast<int>(f[1]) + 1)) {
        last_update_round_ = round;
      }
    }
  } else {
    ensurePhase2(round);
    for (const sim::Message& msg : received) {
      if (!decodeFields(msg, width_, 2, static_cast<std::uint64_t>(n_), f)) {
        continue;
      }
      const int ecc = static_cast<int>(f[0]);
      const auto id = static_cast<sim::NodeId>(f[1]);
      if (ecc > best_ecc_ || (ecc == best_ecc_ && id < best_node_)) {
        best_ecc_ = ecc;
        best_node_ = id;
        last_update_round_ = round;
      }
    }
  }
  if (round >= scheduleRounds(n_)) {
    done_ = true;
  }
}

std::uint64_t DiamExactProcess::stateDigest() const {
  std::uint64_t h = util::hashCombine(0x6469616d65786163ULL,
                                      static_cast<std::uint64_t>(node_));
  h = pipe_.digest(h);
  h = util::hashCombine(h, static_cast<std::uint64_t>(ecc_ + 1));
  h = util::hashCombine(h, static_cast<std::uint64_t>(best_ecc_ + 1));
  h = util::hashCombine(h, static_cast<std::uint64_t>(best_node_ + 1));
  h = util::hashCombine(h, done_ ? 1 : 0);
  return h;
}

void DiamExactProcess::exportMetrics(
    std::vector<std::pair<std::string, double>>& out) const {
  out.emplace_back("diam/ecc", static_cast<double>(ecc_));
  out.emplace_back("diam/diameter", static_cast<double>(best_ecc_));
  out.emplace_back("diam/argmax", static_cast<double>(best_node_));
  out.emplace_back("diam/known_sources", static_cast<double>(pipe_.knownCount()));
  out.emplace_back("diam/last_update_round",
                   static_cast<double>(last_update_round_));
}

std::unique_ptr<sim::Process> DiamExactFactory::create(
    sim::NodeId node, sim::NodeId num_nodes) const {
  return std::make_unique<DiamExactProcess>(node, num_nodes);
}

// --- diam_2approx -----------------------------------------------------------

Diam2ApproxProcess::Diam2ApproxProcess(sim::NodeId node, sim::NodeId num_nodes,
                                       sim::NodeId source)
    : node_(node),
      n_(num_nodes),
      width_(util::bitWidthFor(static_cast<std::uint64_t>(num_nodes))),
      source_(source),
      dist_(node == source ? 0 : -1) {
  DYNET_CHECK(source >= 0 && source < num_nodes)
      << "diam_2approx source " << source << " out of range for n="
      << num_nodes;
}

void Diam2ApproxProcess::ensurePhase2(sim::Round round) {
  if (phase2_init_ || round <= phase1Rounds(n_)) {
    return;
  }
  phase2_init_ = true;
  best_dist_ = std::max(0, dist_);
  best_node_ = node_;
}

sim::Action Diam2ApproxProcess::onRound(sim::Round round,
                                        util::CoinStream& /*coins*/) {
  sim::Action action;
  if (round <= phase1Rounds(n_)) {
    if (dist_ >= 0) {
      action.send = true;
      action.msg = sim::MessageBuilder()
                       .put(static_cast<std::uint64_t>(dist_), width_)
                       .build();
    }
    return action;
  }
  ensurePhase2(round);
  action.send = true;
  action.msg = sim::MessageBuilder()
                   .put(static_cast<std::uint64_t>(best_dist_), width_)
                   .put(static_cast<std::uint64_t>(best_node_), width_)
                   .build();
  return action;
}

void Diam2ApproxProcess::onDeliver(sim::Round round, bool /*sent*/,
                                   std::span<const sim::Message> received) {
  if (round <= phase1Rounds(n_)) {
    std::uint64_t f[1];
    for (const sim::Message& msg : received) {
      if (!decodeFields(msg, width_, 1, static_cast<std::uint64_t>(n_), f) ||
          !distanceExtends(f[0], n_)) {
        continue;
      }
      const int nd = static_cast<int>(f[0]) + 1;
      if (dist_ < 0 || nd < dist_) {
        dist_ = nd;
      }
    }
  } else {
    ensurePhase2(round);
    std::uint64_t f[2];
    for (const sim::Message& msg : received) {
      if (!decodeFields(msg, width_, 2, static_cast<std::uint64_t>(n_), f)) {
        continue;
      }
      const int d = static_cast<int>(f[0]);
      const auto id = static_cast<sim::NodeId>(f[1]);
      if (d > best_dist_ || (d == best_dist_ && id < best_node_)) {
        best_dist_ = d;
        best_node_ = id;
      }
    }
  }
  if (round >= scheduleRounds(n_)) {
    done_ = true;
  }
}

std::uint64_t Diam2ApproxProcess::stateDigest() const {
  std::uint64_t h = util::hashCombine(0x6469616d32617070ULL,
                                      static_cast<std::uint64_t>(node_));
  h = util::hashCombine(h, static_cast<std::uint64_t>(dist_ + 1));
  h = util::hashCombine(h, static_cast<std::uint64_t>(best_dist_ + 1));
  h = util::hashCombine(h, static_cast<std::uint64_t>(best_node_ + 1));
  h = util::hashCombine(h, done_ ? 1 : 0);
  return h;
}

void Diam2ApproxProcess::exportMetrics(
    std::vector<std::pair<std::string, double>>& out) const {
  out.emplace_back("diam2/dist_from_source", static_cast<double>(dist_));
  out.emplace_back("diam2/estimate", static_cast<double>(best_dist_));
  out.emplace_back("diam2/argmax", static_cast<double>(best_node_));
}

std::unique_ptr<sim::Process> Diam2ApproxFactory::create(
    sim::NodeId node, sim::NodeId num_nodes) const {
  return std::make_unique<Diam2ApproxProcess>(node, num_nodes, source_);
}

}  // namespace dynet::proto
