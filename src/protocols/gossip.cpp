#include "protocols/gossip.h"

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

sim::Round gossipRounds(int k, sim::Round diameter, sim::NodeId num_nodes,
                        int gamma) {
  const int log_n = util::bitWidthFor(static_cast<std::uint64_t>(num_nodes));
  return gamma * (static_cast<sim::Round>(k) + diameter * log_n) * log_n;
}

}  // namespace dynet::proto
