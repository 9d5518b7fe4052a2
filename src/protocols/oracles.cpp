#include "protocols/oracles.h"

#include "util/check.h"
#include "util/rng.h"

namespace dynet::proto {

RandomBabblerProcess::RandomBabblerProcess(sim::NodeId node, int payload_bits)
    : node_(node),
      payload_bits_(payload_bits),
      digest_(util::mix64(static_cast<std::uint64_t>(node) ^ 0x6a09e667f3bcc908ULL)) {
  DYNET_CHECK(payload_bits_ >= 1 && payload_bits_ <= 64)
      << "payload_bits=" << payload_bits_;
}

sim::Action RandomBabblerProcess::onRound(sim::Round /*round*/,
                                          util::CoinStream& coins) {
  sim::Action action;
  if (coins.coin()) {
    std::uint64_t payload = coins.u64();
    if (payload_bits_ < 64) {
      payload &= (std::uint64_t{1} << payload_bits_) - 1;
    }
    // Mix the evolving state digest in, so a node's traffic depends on its
    // full receive history — maximal sensitivity for simulation tests.
    payload ^= digest_;
    if (payload_bits_ < 64) {
      payload &= (std::uint64_t{1} << payload_bits_) - 1;
    }
    action.send = true;
    action.msg = sim::MessageBuilder().put(payload, payload_bits_).build();
    digest_ = util::hashCombine(digest_, payload ^ 0x1f83d9abfb41bd6bULL);
  }
  return action;
}

void RandomBabblerProcess::onDeliver(sim::Round /*round*/, bool /*sent*/,
                                     std::span<const sim::Message> received) {
  for (const sim::Message& msg : received) {
    digest_ = util::hashCombine(digest_, msg.digest());
  }
}

std::unique_ptr<sim::Process> RandomBabblerFactory::create(
    sim::NodeId node, sim::NodeId /*num_nodes*/) const {
  return std::make_unique<RandomBabblerProcess>(node, payload_bits_);
}

ConsensusOracleFactory::ConsensusOracleFactory(std::vector<std::uint64_t> inputs,
                                               int key_bits,
                                               sim::Round total_rounds)
    : inputs_(std::move(inputs)),
      key_bits_(key_bits),
      total_rounds_(total_rounds) {
  DYNET_CHECK(key_bits_ >= 1 && key_bits_ <= 62) << "key_bits=" << key_bits_;
}

std::unique_ptr<sim::Process> ConsensusOracleFactory::create(
    sim::NodeId node, sim::NodeId /*num_nodes*/) const {
  DYNET_CHECK(static_cast<std::size_t>(node) < inputs_.size())
      << "node " << node << " outside inputs";
  DYNET_CHECK(static_cast<std::uint64_t>(node) + 1 <
              (std::uint64_t{1} << key_bits_))
      << "id does not fit key_bits";
  return std::make_unique<MaxFloodProcess>(
      static_cast<std::uint64_t>(node) + 1,
      inputs_[static_cast<std::size_t>(node)], key_bits_, /*value_bits=*/1,
      total_rounds_);
}

}  // namespace dynet::proto
