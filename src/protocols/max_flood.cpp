#include "protocols/max_flood.h"

#include <algorithm>

#include "sim/soa.h"
#include "sim/soa_exec.h"
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

namespace {

// Flat-array max-flood.  Two layout-enabled shortcuts over the object path,
// both exactly value-preserving:
//   * per-node encoded-message cache with a dirty bit — a node that keeps
//     the same best pair re-sends the identical bytes without re-encoding;
//   * pristine deliveries skip the decode entirely and read the *sender's*
//     best_key / best_value columns.  Safe because a sender receives
//     nothing this round (send-xor-receive), so its columns are exactly
//     what it encoded at compute time; exact because BitWriter::put checks
//     every stored field fits its width, making encode/decode lossless.
//     Corrupted copies carry mangled bytes and still take the decode path.
class MaxFloodSoA final : public sim::SoAModel {
 public:
  MaxFloodSoA(std::vector<std::uint64_t> values, int key_bits, int value_bits,
              sim::Round total_rounds)
      : values_(std::move(values)),
        key_bits_(key_bits),
        value_bits_(value_bits),
        total_rounds_(total_rounds),
        best_key_(values_.size()),
        best_value_(values_),
        done_(values_.size(), 0),
        dirty_(values_.size(), 1),
        msg_(values_.size()) {
    DYNET_CHECK(key_bits_ >= 1 && key_bits_ <= 62) << "key_bits=" << key_bits_;
    DYNET_CHECK(value_bits_ >= 1 && value_bits_ <= 62)
        << "value_bits=" << value_bits_;
    DYNET_CHECK(total_rounds_ >= 1) << "total_rounds=" << total_rounds_;
    for (std::size_t v = 0; v < best_key_.size(); ++v) {
      best_key_[v] = static_cast<std::uint64_t>(v) + 1;
    }
  }

  void computeAll(sim::RoundContext& ctx) override {
    sim::soaComputeAll(ctx, *this);
  }
  void deliverAll(sim::RoundContext& ctx) override {
    sim::soaDeliverAll(ctx, *this);
  }

  // Max-flood's only draw is the send coin, so the firstCoin shortcut
  // replaces the full CoinStream (one mix64 saved per node per round).
  void computeNode(sim::RoundContext& ctx, sim::NodeId v,
                   std::uint64_t node_key) {
    const auto vi = static_cast<std::size_t>(v);
    sim::Action& a = ctx.ws->actions[vi];
    if (util::CoinStream::firstCoin(util::CoinStream::roundKey(
            node_key, static_cast<std::uint64_t>(ctx.round)))) {
      if (dirty_[vi] != 0) {
        msg_[vi] = sim::MessageBuilder()
                       .put(best_key_[vi], key_bits_)
                       .put(best_value_[vi], value_bits_)
                       .build();
        dirty_[vi] = 0;
      }
      a.send = true;
      a.msg = msg_[vi];
    } else {
      a = sim::Action{};
    }
  }

  void onMessage(sim::RoundContext& /*ctx*/, sim::NodeId v, sim::NodeId u,
                 const sim::Message& msg, bool pristine) {
    const auto vi = static_cast<std::size_t>(v);
    std::uint64_t key;
    std::uint64_t value;
    if (pristine) {
      const auto ui = static_cast<std::size_t>(u);
      key = best_key_[ui];
      value = best_value_[ui];
    } else {
      sim::MessageReader reader(msg);
      key = reader.get(key_bits_);
      value = reader.get(value_bits_);
    }
    if (key > best_key_[vi]) {
      best_key_[vi] = key;
      best_value_[vi] = value;
      dirty_[vi] = 1;
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
    best_key_[vi] = static_cast<std::uint64_t>(v) + 1;
    best_value_[vi] = values_[vi];
    done_[vi] = 0;
    dirty_[vi] = 1;
  }

  const char* doneData() const override { return done_.data(); }
  std::uint64_t output(sim::NodeId v) const override {
    return best_value_[static_cast<std::size_t>(v)];
  }
  std::uint64_t stateDigest(sim::NodeId v) const override {
    const auto vi = static_cast<std::size_t>(v);
    return util::hashCombine(best_key_[vi], best_value_[vi]);
  }

 private:
  std::vector<std::uint64_t> values_;
  int key_bits_;
  int value_bits_;
  sim::Round total_rounds_;
  std::vector<std::uint64_t> best_key_;
  std::vector<std::uint64_t> best_value_;
  std::vector<char> done_;
  std::vector<char> dirty_;
  std::vector<sim::Message> msg_;
};

}  // namespace

std::unique_ptr<sim::SoAModel> MaxFloodFactory::createSoA(
    sim::NodeId num_nodes) const {
  DYNET_CHECK(static_cast<std::size_t>(num_nodes) == values_.size())
      << "values size mismatch";
  const int key_bits =
      util::bitWidthFor(static_cast<std::uint64_t>(num_nodes) + 1);
  return std::make_unique<MaxFloodSoA>(values_, key_bits, value_bits_,
                                       total_rounds_);
}

sim::Round knownDRounds(sim::Round diameter, sim::NodeId num_nodes, int gamma) {
  DYNET_CHECK(diameter >= 1) << "diameter=" << diameter;
  return gamma * diameter * util::bitWidthFor(static_cast<std::uint64_t>(num_nodes)) +
         gamma;
}

}  // namespace dynet::proto
