#include "protocols/max_flood.h"

#include "util/check.h"

namespace dynet::proto {

MaxFloodProcess::MaxFloodProcess(std::uint64_t key, std::uint64_t value,
                                 int key_bits, int value_bits,
                                 sim::Round total_rounds)
    : best_key_(key),
      best_value_(value),
      key_bits_(key_bits),
      value_bits_(value_bits),
      total_rounds_(total_rounds) {
  DYNET_CHECK(key_bits_ >= 1 && key_bits_ <= 62) << "key_bits=" << key_bits_;
  DYNET_CHECK(value_bits_ >= 1 && value_bits_ <= 62)
      << "value_bits=" << value_bits_;
  DYNET_CHECK(total_rounds_ >= 1) << "total_rounds=" << total_rounds_;
}

sim::Action MaxFloodProcess::onRound(sim::Round /*round*/,
                                     util::CoinStream& coins) {
  sim::Action action;
  if (coins.coin()) {
    action.send = true;
    action.msg = sim::MessageBuilder()
                     .put(best_key_, key_bits_)
                     .put(best_value_, value_bits_)
                     .build();
  }
  return action;
}

void MaxFloodProcess::onDeliver(sim::Round round, bool /*sent*/,
                                std::span<const sim::Message> received) {
  for (const sim::Message& msg : received) {
    sim::MessageReader reader(msg);
    const std::uint64_t key = reader.get(key_bits_);
    const std::uint64_t value = reader.get(value_bits_);
    if (key > best_key_) {
      best_key_ = key;
      best_value_ = value;
    }
  }
  if (round >= total_rounds_) {
    done_ = true;
  }
}

std::uint64_t MaxFloodProcess::stateDigest() const {
  return util::hashCombine(best_key_, best_value_);
}

MaxFloodFactory::MaxFloodFactory(std::vector<std::uint64_t> values,
                                 int value_bits, sim::Round total_rounds)
    : values_(std::move(values)),
      value_bits_(value_bits),
      total_rounds_(total_rounds) {}

std::unique_ptr<sim::Process> MaxFloodFactory::create(
    sim::NodeId node, sim::NodeId num_nodes) const {
  DYNET_CHECK(static_cast<std::size_t>(num_nodes) == values_.size())
      << "values size mismatch";
  const int key_bits = util::bitWidthFor(static_cast<std::uint64_t>(num_nodes) + 1);
  return std::make_unique<MaxFloodProcess>(
      static_cast<std::uint64_t>(node) + 1, values_[static_cast<std::size_t>(node)],
      key_bits, value_bits_, total_rounds_);
}

sim::Round knownDRounds(sim::Round diameter, sim::NodeId num_nodes, int gamma) {
  DYNET_CHECK(diameter >= 1) << "diameter=" << diameter;
  return gamma * diameter * util::bitWidthFor(static_cast<std::uint64_t>(num_nodes)) +
         gamma;
}

}  // namespace dynet::proto
