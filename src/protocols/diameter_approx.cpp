#include "protocols/diameter_approx.h"

#include <algorithm>

#include "sim/message.h"
#include "util/bitio.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::proto {

sim::NodeId Diam32ApproxProcess::sampleSize(sim::NodeId n) {
  DYNET_CHECK(n >= 1) << "sampleSize: n=" << n;
  // ceil(sqrt(n * ceil(log2 n))) via integer search; caps at n.
  const auto log2n = static_cast<std::int64_t>(
      util::bitWidthFor(static_cast<std::uint64_t>(n)));
  const std::int64_t target = static_cast<std::int64_t>(n) * std::max<std::int64_t>(1, log2n);
  std::int64_t k = 1;
  while (k * k < target) {
    ++k;
  }
  return static_cast<sim::NodeId>(std::min<std::int64_t>(k, n));
}

std::vector<sim::NodeId> Diam32ApproxProcess::sampleSources(
    sim::NodeId n, std::uint64_t seed) {
  const sim::NodeId k = sampleSize(n);
  std::vector<sim::NodeId> ids(static_cast<std::size_t>(n));
  for (sim::NodeId v = 0; v < n; ++v) {
    ids[static_cast<std::size_t>(v)] = v;
  }
  // Partial Fisher-Yates keyed on the run seed: every node derives the same
  // sample, and util::Rng is repo-owned so the sample (and the golden
  // digests downstream of it) is platform-independent.
  util::Rng rng(util::mix64(seed ^ 0x646f6d736574ULL));
  for (sim::NodeId i = 0; i < k; ++i) {
    const auto j = i + static_cast<sim::NodeId>(
                           rng.below(static_cast<std::uint64_t>(n - i)));
    std::swap(ids[static_cast<std::size_t>(i)], ids[static_cast<std::size_t>(j)]);
  }
  ids.resize(static_cast<std::size_t>(k));
  std::sort(ids.begin(), ids.end());
  return ids;
}

Diam32ApproxProcess::Diam32ApproxProcess(sim::NodeId node,
                                         sim::NodeId num_nodes,
                                         std::vector<sim::NodeId> sources)
    : node_(node),
      n_(num_nodes),
      k_(sampleSize(num_nodes)),
      width_(util::bitWidthFor(static_cast<std::uint64_t>(num_nodes))),
      sources_(std::move(sources)) {
  DYNET_CHECK(!sources_.empty()) << "diam_32approx: empty source sample";
  pipe_s_.reset(n_);
  pipe_nw_.reset(n_);
  if (std::binary_search(sources_.begin(), sources_.end(), node_)) {
    pipe_s_.seed(node_);
  }
}

void Diam32ApproxProcess::notice(int dist) {
  if (dist > global_max_) {
    global_max_ = dist;
  }
}

void Diam32ApproxProcess::beginPhase(sim::Round round) {
  const int phase = 1 + (round > e1() ? 1 : 0) + (round > e2() ? 1 : 0) +
                    (round > e3() ? 1 : 0) + (round > e4() ? 1 : 0) +
                    (round > e5() ? 1 : 0);
  while (phase_begun_ < phase) {
    ++phase_begun_;
    switch (phase_begun_) {
      case 2: {
        // P1 closed: its values are final, hence true distances on a static
        // connected topology — only now may they feed the running maximum
        // (an in-flight overestimate must never inflate D-hat).
        int ds = -1;
        for (const sim::NodeId s : sources_) {
          const int d = pipe_s_.dist(s);
          notice(d);
          if (d >= 0 && (ds < 0 || d < ds)) {
            ds = d;
          }
        }
        d_s_ = ds < 0 ? 0 : ds;
        best_ds_ = d_s_;
        w_ = node_;
        break;
      }
      case 3:
        if (node_ == w_) {
          dist_w_ = 0;
        }
        break;
      case 4:
        notice(dist_w_);
        if (dist_w_ >= 0) {
          topk_.insert({dist_w_, node_});
          unsent_.insert({dist_w_, node_});
        }
        break;
      case 5:
        // A node in the selected top-|S| set acts as a P5 BFS source.
        // Membership may be locally inconsistent if P4 didn't converge;
        // that only changes which true distances get computed, never D-hat
        // <= D.
        if (dist_w_ >= 0 &&
            topk_.count({dist_w_, node_}) != 0) {
          pipe_nw_.seed(node_);
        }
        break;
      case 6:
        for (sim::NodeId s = 0; s < n_; ++s) {
          notice(pipe_nw_.dist(s));
        }
        notice(0);
        break;
      default:
        break;
    }
  }
}

sim::Action Diam32ApproxProcess::onRound(sim::Round round,
                                         util::CoinStream& /*coins*/) {
  beginPhase(round);
  sim::Action action;
  switch (phase_begun_) {
    case 1:
      if (pipe_s_.hasPending()) {
        const auto [d, s] = pipe_s_.popSmallest();
        action.send = true;
        action.msg = sim::MessageBuilder()
                         .put(static_cast<std::uint64_t>(s), width_)
                         .put(static_cast<std::uint64_t>(d), width_)
                         .build();
      }
      break;
    case 2:
      action.send = true;
      action.msg = sim::MessageBuilder()
                       .put(static_cast<std::uint64_t>(best_ds_), width_)
                       .put(static_cast<std::uint64_t>(w_), width_)
                       .build();
      break;
    case 3:
      if (dist_w_ >= 0) {
        action.send = true;
        action.msg = sim::MessageBuilder()
                         .put(static_cast<std::uint64_t>(dist_w_), width_)
                         .build();
      }
      break;
    case 4:
      // Smallest not-yet-forwarded pair that survived eviction.
      while (!unsent_.empty() && topk_.count(*unsent_.begin()) == 0) {
        unsent_.erase(unsent_.begin());
      }
      if (!unsent_.empty()) {
        const auto p = *unsent_.begin();
        unsent_.erase(unsent_.begin());
        action.send = true;
        action.msg = sim::MessageBuilder()
                         .put(static_cast<std::uint64_t>(p.first), width_)
                         .put(static_cast<std::uint64_t>(p.second), width_)
                         .build();
      }
      break;
    case 5:
      if (pipe_nw_.hasPending()) {
        const auto [d, s] = pipe_nw_.popSmallest();
        action.send = true;
        action.msg = sim::MessageBuilder()
                         .put(static_cast<std::uint64_t>(s), width_)
                         .put(static_cast<std::uint64_t>(d), width_)
                         .build();
      }
      break;
    default:
      action.send = true;
      action.msg = sim::MessageBuilder()
                       .put(static_cast<std::uint64_t>(std::max(0, global_max_)),
                            width_)
                       .build();
      break;
  }
  return action;
}

void Diam32ApproxProcess::onDeliver(sim::Round round, bool /*sent*/,
                                    std::span<const sim::Message> received) {
  beginPhase(round);
  const auto bound = static_cast<std::uint64_t>(n_);
  std::uint64_t f[2];
  for (const sim::Message& msg : received) {
    switch (phase_begun_) {
      case 1:
        if (decodeFields(msg, width_, 2, bound, f) &&
            distanceExtends(f[1], n_) &&
            std::binary_search(sources_.begin(), sources_.end(),
                               static_cast<sim::NodeId>(f[0]))) {
          pipe_s_.relax(static_cast<sim::NodeId>(f[0]),
                        static_cast<int>(f[1]) + 1);
        }
        break;
      case 2:
        if (decodeFields(msg, width_, 2, bound, f)) {
          const int d = static_cast<int>(f[0]);
          const auto id = static_cast<sim::NodeId>(f[1]);
          if (d > best_ds_ || (d == best_ds_ && id < w_)) {
            best_ds_ = d;
            w_ = id;
          }
        }
        break;
      case 3:
        if (decodeFields(msg, width_, 1, bound, f) &&
            distanceExtends(f[0], n_)) {
          const int nd = static_cast<int>(f[0]) + 1;
          if (dist_w_ < 0 || nd < dist_w_) {
            dist_w_ = nd;
          }
        }
        break;
      case 4:
        if (decodeFields(msg, width_, 2, bound, f)) {
          const std::pair<std::int32_t, sim::NodeId> p{
              static_cast<std::int32_t>(f[0]), static_cast<sim::NodeId>(f[1])};
          if (topk_.insert(p).second) {
            unsent_.insert(p);
            while (topk_.size() > static_cast<std::size_t>(k_)) {
              const auto last = std::prev(topk_.end());
              unsent_.erase(*last);
              topk_.erase(last);
            }
          }
        }
        break;
      case 5:
        if (decodeFields(msg, width_, 2, bound, f) &&
            distanceExtends(f[1], n_)) {
          pipe_nw_.relax(static_cast<sim::NodeId>(f[0]),
                         static_cast<int>(f[1]) + 1);
        }
        break;
      default:
        if (decodeFields(msg, width_, 1, bound, f)) {
          notice(static_cast<int>(f[0]));
        }
        break;
    }
  }
  if (round >= e6()) {
    done_ = true;
  }
}

std::uint64_t Diam32ApproxProcess::stateDigest() const {
  std::uint64_t h = util::hashCombine(0x6469616d333261ULL,
                                      static_cast<std::uint64_t>(node_));
  h = util::hashCombine(h, static_cast<std::uint64_t>(phase_begun_));
  h = pipe_s_.digest(h);
  h = util::hashCombine(h, static_cast<std::uint64_t>(d_s_ + 1));
  h = util::hashCombine(h, static_cast<std::uint64_t>(best_ds_ + 1));
  h = util::hashCombine(h, static_cast<std::uint64_t>(w_ + 1));
  h = util::hashCombine(h, static_cast<std::uint64_t>(dist_w_ + 1));
  for (const auto& [d, id] : topk_) {
    h = util::hashCombine(h, static_cast<std::uint64_t>(d));
    h = util::hashCombine(h, static_cast<std::uint64_t>(id));
  }
  for (const auto& [d, id] : unsent_) {
    h = util::hashCombine(h, static_cast<std::uint64_t>(d));
    h = util::hashCombine(h, static_cast<std::uint64_t>(id));
  }
  h = pipe_nw_.digest(h);
  h = util::hashCombine(h, static_cast<std::uint64_t>(global_max_ + 1));
  h = util::hashCombine(h, done_ ? 1 : 0);
  return h;
}

void Diam32ApproxProcess::exportMetrics(
    std::vector<std::pair<std::string, double>>& out) const {
  out.emplace_back("diam32/estimate", static_cast<double>(global_max_));
  out.emplace_back("diam32/sources", static_cast<double>(k_));
  out.emplace_back("diam32/w", static_cast<double>(w_));
  out.emplace_back("diam32/dist_w", static_cast<double>(dist_w_));
}

std::unique_ptr<sim::Process> Diam32ApproxFactory::create(
    sim::NodeId node, sim::NodeId num_nodes) const {
  return std::make_unique<Diam32ApproxProcess>(
      node, num_nodes, Diam32ApproxProcess::sampleSources(num_nodes, seed_));
}

}  // namespace dynet::proto
