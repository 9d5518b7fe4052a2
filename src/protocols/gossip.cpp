#include "protocols/gossip.h"

#include <algorithm>

#include "sim/soa.h"
#include "sim/soa_exec.h"
#include "util/bitio.h"
#include "util/check.h"

namespace dynet::proto {

namespace {
constexpr int kTokenBits = 20;
}

GossipProcess::GossipProcess(std::vector<int> initial, int total_tokens,
                             sim::Round total_rounds)
    : total_tokens_(total_tokens), total_rounds_(total_rounds) {
  DYNET_CHECK(total_tokens_ >= 1 && total_tokens_ < (1 << kTokenBits))
      << "k=" << total_tokens_;
  held_.assign(static_cast<std::size_t>(total_tokens_), false);
  for (const int t : initial) {
    DYNET_CHECK(t >= 0 && t < total_tokens_) << "token " << t;
    if (!held_[static_cast<std::size_t>(t)]) {
      held_[static_cast<std::size_t>(t)] = true;
      held_list_.push_back(t);
      ++held_count_;
    }
  }
  if (held_count_ == total_tokens_) {
    complete_round_ = 0;
  }
}

sim::Action GossipProcess::onRound(sim::Round /*round*/,
                                   util::CoinStream& coins) {
  sim::Action action;
  if (held_count_ > 0 && coins.coin()) {
    const int token = held_list_[static_cast<std::size_t>(
        coins.below(static_cast<std::uint64_t>(held_count_)))];
    action.send = true;
    action.msg = sim::MessageBuilder()
                     .put(static_cast<std::uint64_t>(token), kTokenBits)
                     .build();
  }
  return action;
}

void GossipProcess::onDeliver(sim::Round round, bool /*sent*/,
                              std::span<const sim::Message> received) {
  for (const sim::Message& msg : received) {
    sim::MessageReader reader(msg);
    const int token = static_cast<int>(reader.get(kTokenBits));
    if (token < total_tokens_ && !held_[static_cast<std::size_t>(token)]) {
      held_[static_cast<std::size_t>(token)] = true;
      held_list_.push_back(token);
      ++held_count_;
      if (held_count_ == total_tokens_ && complete_round_ < 0) {
        complete_round_ = round;
      }
    }
  }
  if (round >= total_rounds_) {
    done_ = true;
  }
}

std::unique_ptr<sim::Process> GossipFactory::create(sim::NodeId node,
                                                    sim::NodeId num_nodes) const {
  std::vector<int> initial;
  for (int t = node; t < total_tokens_; t += num_nodes) {
    initial.push_back(t);
  }
  return std::make_unique<GossipProcess>(initial, total_tokens_, total_rounds_);
}

namespace {

// Flat-array gossip.  Per node: `words` bitset words of held tokens, a
// k-wide slice of the flat held_list (insertion order is protocol state —
// the uniform draw indexes into it), and held_count / complete_round /
// done scalars.  Hooks mirror GossipProcess verbatim, including the two
// coin draws per sending round and the token-range guard on (possibly
// mangled) decodes.
class GossipSoA final : public sim::SoAModel {
 public:
  GossipSoA(sim::NodeId num_nodes, int total_tokens, sim::Round total_rounds)
      : k_(total_tokens),
        words_(static_cast<std::size_t>((total_tokens + 63) / 64)),
        total_rounds_(total_rounds),
        n_(num_nodes),
        held_(static_cast<std::size_t>(num_nodes) * words_, 0),
        held_list_(static_cast<std::size_t>(num_nodes) *
                       static_cast<std::size_t>(total_tokens),
                   0),
        held_count_(static_cast<std::size_t>(num_nodes), 0),
        complete_round_(static_cast<std::size_t>(num_nodes), -1),
        done_(static_cast<std::size_t>(num_nodes), 0) {
    for (sim::NodeId v = 0; v < num_nodes; ++v) {
      resetNode(v);
    }
  }

  void computeAll(sim::RoundContext& ctx) override {
    sim::soaComputeAll(ctx, *this);
  }
  void deliverAll(sim::RoundContext& ctx) override {
    sim::soaDeliverAll(ctx, *this);
  }

  // Two draws, same stream as GossipProcess: the send coin via the
  // firstCoin shortcut, then (only when sending) the uniform token index
  // from a stream resumed past that first draw.
  void computeNode(sim::RoundContext& ctx, sim::NodeId v,
                   std::uint64_t node_key) {
    const auto vi = static_cast<std::size_t>(v);
    sim::Action& a = ctx.ws->actions[vi];
    const int hc = held_count_[vi];
    if (hc > 0) {
      const std::uint64_t round_key = util::CoinStream::roundKey(
          node_key, static_cast<std::uint64_t>(ctx.round));
      if (util::CoinStream::firstCoin(round_key)) {
        util::CoinStream coins =
            util::CoinStream::fromRoundKey(round_key, /*skip=*/1);
        const int token =
            held_list_[vi * static_cast<std::size_t>(k_) +
                       static_cast<std::size_t>(
                           coins.below(static_cast<std::uint64_t>(hc)))];
        a.send = true;
        a.msg = sim::MessageBuilder()
                    .put(static_cast<std::uint64_t>(token), kTokenBits)
                    .build();
        return;
      }
    }
    a = sim::Action{};
  }

  void onMessage(sim::RoundContext& ctx, sim::NodeId v, sim::NodeId /*u*/,
                 const sim::Message& msg, bool /*pristine*/) {
    sim::MessageReader reader(msg);
    const int token = static_cast<int>(reader.get(kTokenBits));
    if (token >= k_) {
      return;  // out-of-range (corrupted) token
    }
    const auto vi = static_cast<std::size_t>(v);
    std::uint64_t& word =
        held_[vi * words_ + static_cast<std::size_t>(token >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (token & 63);
    if ((word & bit) != 0) {
      return;
    }
    word |= bit;
    int& count = held_count_[vi];
    held_list_[vi * static_cast<std::size_t>(k_) +
               static_cast<std::size_t>(count)] = token;
    ++count;
    if (count == k_ && complete_round_[vi] < 0) {
      complete_round_[vi] = ctx.round;
    }
  }

  void afterDeliver(sim::RoundContext& ctx, sim::NodeId v, bool /*sent*/) {
    if (ctx.round >= total_rounds_) {
      done_[static_cast<std::size_t>(v)] = 1;
    }
  }

  // Bulk afterDeliver for the fault-free push path: done depends only on
  // the round, so the per-node hook collapses to one column fill.
  void afterDeliverAllClean(sim::RoundContext& ctx) {
    if (ctx.round >= total_rounds_) {
      std::fill(done_.begin(), done_.end(), char{1});
    }
  }

  void resetNode(sim::NodeId v) override {
    const auto vi = static_cast<std::size_t>(v);
    for (std::size_t w = 0; w < words_; ++w) {
      held_[vi * words_ + w] = 0;
    }
    int count = 0;
    for (int t = v; t < k_; t += n_) {
      held_[vi * words_ + static_cast<std::size_t>(t >> 6)] |=
          std::uint64_t{1} << (t & 63);
      held_list_[vi * static_cast<std::size_t>(k_) +
                 static_cast<std::size_t>(count)] = t;
      ++count;
    }
    held_count_[vi] = count;
    complete_round_[vi] = count == k_ ? 0 : -1;
    done_[vi] = 0;
  }

  const char* doneData() const override { return done_.data(); }
  std::uint64_t output(sim::NodeId v) const override {
    return static_cast<std::uint64_t>(held_count_[static_cast<std::size_t>(v)]);
  }
  std::uint64_t stateDigest(sim::NodeId v) const override {
    (void)v;
    return 0;  // GossipProcess has no stateDigest either
  }

 private:
  int k_;
  std::size_t words_;
  sim::Round total_rounds_;
  sim::NodeId n_;
  std::vector<std::uint64_t> held_;
  std::vector<std::int32_t> held_list_;
  std::vector<std::int32_t> held_count_;
  std::vector<std::int32_t> complete_round_;
  std::vector<char> done_;
};

}  // namespace

std::unique_ptr<sim::SoAModel> GossipFactory::createSoA(
    sim::NodeId num_nodes) const {
  // Checked before the model sizes its k-wide columns.
  DYNET_CHECK(total_tokens_ >= 1 && total_tokens_ < (1 << kTokenBits))
      << "k=" << total_tokens_;
  return std::make_unique<GossipSoA>(num_nodes, total_tokens_, total_rounds_);
}

sim::Round gossipRounds(int k, sim::Round diameter, sim::NodeId num_nodes,
                        int gamma) {
  const int log_n = util::bitWidthFor(static_cast<std::uint64_t>(num_nodes));
  return gamma * (static_cast<sim::Round>(k) + diameter * log_n) * log_n;
}

}  // namespace dynet::proto
