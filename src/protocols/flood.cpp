#include "protocols/flood.h"

#include <algorithm>

#include "sim/soa.h"
#include "sim/soa_exec.h"
#include "util/check.h"

namespace dynet::proto {

std::uint64_t floodStateDigest(sim::NodeId node, bool has_token,
                               sim::Round token_round) {
  return util::hashCombine(
      util::hashCombine(static_cast<std::uint64_t>(node), has_token ? 1 : 0),
      static_cast<std::uint64_t>(token_round + 1));
}

FloodProcess::FloodProcess(sim::NodeId node, sim::NodeId source,
                           std::uint64_t token, int token_bits, FloodMode mode,
                           sim::Round halt_round)
    : node_(node),
      token_(token),
      token_bits_(token_bits),
      mode_(mode),
      halt_round_(halt_round),
      has_token_(node == source),
      token_round_(node == source ? 0 : -1) {
  DYNET_CHECK(token_bits_ >= 1 && token_bits_ <= 64) << "token_bits=" << token_bits_;
}

sim::Action FloodProcess::onRound(sim::Round /*round*/, util::CoinStream& coins) {
  sim::Action action;
  if (has_token_ &&
      (mode_ == FloodMode::kDeterministic || coins.coin())) {
    action.send = true;
    action.msg = sim::MessageBuilder().put(token_, token_bits_).build();
  }
  return action;
}

void FloodProcess::onDeliver(sim::Round round, bool /*sent*/,
                             std::span<const sim::Message> received) {
  if (!has_token_ && !received.empty()) {
    // Any received message carries the token (single-token protocol).
    sim::MessageReader reader(received.front());
    const std::uint64_t value = reader.get(token_bits_);
    DYNET_CHECK(value == token_) << "foreign token " << value;
    has_token_ = true;
    token_round_ = round;
  }
  if (halt_round_ > 0 && round >= halt_round_) {
    done_ = true;
  }
}

std::uint64_t FloodProcess::stateDigest() const {
  return floodStateDigest(node_, has_token_, token_round_);
}

void FloodProcess::exportMetrics(
    std::vector<std::pair<std::string, double>>& out) const {
  out.emplace_back("flood/has_token", has_token_ ? 1.0 : 0.0);
  out.emplace_back("flood/token_round", static_cast<double>(token_round_));
}

std::unique_ptr<sim::Process> FloodFactory::create(sim::NodeId node,
                                                   sim::NodeId num_nodes) const {
  DYNET_CHECK(0 <= source_ && source_ < num_nodes)
      << "flood source " << source_ << " outside [0, " << num_nodes << ")";
  return std::make_unique<FloodProcess>(node, source_, token_, token_bits_,
                                        mode_, halt_round_);
}

namespace {

// Flat-array flood: has_token / token_round / done as columns, one shared
// token message built once (every holder sends the identical payload).
// Each hook mirrors the matching FloodProcess member verbatim; the decode
// guard on the first received message keeps even the foreign-token check
// firing on exactly the message the object path would inspect.
class FloodSoA final : public sim::SoAModel {
 public:
  FloodSoA(sim::NodeId num_nodes, sim::NodeId source, std::uint64_t token,
           int token_bits, FloodMode mode, sim::Round halt_round)
      : source_(source),
        token_(token),
        token_bits_(token_bits),
        mode_(mode),
        halt_round_(halt_round),
        has_token_(static_cast<std::size_t>(num_nodes), 0),
        done_(static_cast<std::size_t>(num_nodes), 0),
        token_round_(static_cast<std::size_t>(num_nodes), -1) {
    DYNET_CHECK(token_bits_ >= 1 && token_bits_ <= 64)
        << "token_bits=" << token_bits_;
    has_token_[static_cast<std::size_t>(source_)] = 1;
    token_round_[static_cast<std::size_t>(source_)] = 0;
    msg_ = sim::MessageBuilder().put(token_, token_bits_).build();
  }

  void computeAll(sim::RoundContext& ctx) override {
    sim::soaComputeAll(ctx, *this);
  }
  void deliverAll(sim::RoundContext& ctx) override {
    sim::soaDeliverAll(ctx, *this);
  }

  // Non-holders draw no coins (exactly like FloodProcess, whose onRound
  // short-circuits before coins.coin()), so they skip the round-key hash
  // entirely; holders draw their single coin via the firstCoin shortcut.
  // A node's Action is one of two values, {true, msg_} or Action{}, and
  // the send column still says which one it holds (sim/soa_exec.h), so
  // it is rewritten only when it changes: a saturated flood writes none.
  // Every send is msg_, so its size is known without reading the Action.
  int computeNode(sim::RoundContext& ctx, sim::NodeId v,
                  std::uint64_t node_key) {
    const auto vi = static_cast<std::size_t>(v);
    const bool send =
        has_token_[vi] != 0 &&
        (mode_ == FloodMode::kDeterministic ||
         util::CoinStream::firstCoin(util::CoinStream::roundKey(
             node_key, static_cast<std::uint64_t>(ctx.round))));
    if (send != (ctx.ws->sending[vi] != 0)) {
      sim::Action& a = ctx.ws->actions[vi];
      if (send) {
        a.send = true;
        a.msg = msg_;
      } else {
        a = sim::Action{};
      }
    }
    return send ? msg_.bitSize() : sim::kNoSend;
  }

  void onMessage(sim::RoundContext& ctx, sim::NodeId v, sim::NodeId /*u*/,
                 const sim::Message& msg, bool /*pristine*/) {
    const auto vi = static_cast<std::size_t>(v);
    if (has_token_[vi] != 0) {
      return;  // only the first message is ever decoded
    }
    sim::MessageReader reader(msg);
    const std::uint64_t value = reader.get(token_bits_);
    DYNET_CHECK(value == token_) << "foreign token " << value;
    has_token_[vi] = 1;
    token_round_[vi] = ctx.round;
  }

  void afterDeliver(sim::RoundContext& ctx, sim::NodeId v, bool /*sent*/) {
    if (halt_round_ > 0 && ctx.round >= halt_round_) {
      done_[static_cast<std::size_t>(v)] = 1;
    }
  }

  // Bulk afterDeliver for the fault-free push path: done depends only on
  // the round, so the per-node hook collapses to one column fill.
  void afterDeliverAllClean(sim::RoundContext& ctx) {
    if (halt_round_ > 0 && ctx.round >= halt_round_) {
      std::fill(done_.begin(), done_.end(), char{1});
    }
  }

  void resetNode(sim::NodeId v) override {
    const auto vi = static_cast<std::size_t>(v);
    has_token_[vi] = v == source_ ? 1 : 0;
    token_round_[vi] = v == source_ ? 0 : -1;
    done_[vi] = 0;
  }

  const char* doneData() const override { return done_.data(); }
  std::uint64_t output(sim::NodeId v) const override {
    return has_token_[static_cast<std::size_t>(v)] != 0 ? token_ : 0;
  }
  std::uint64_t stateDigest(sim::NodeId v) const override {
    const auto vi = static_cast<std::size_t>(v);
    return floodStateDigest(v, has_token_[vi] != 0, token_round_[vi]);
  }
  void exportMetrics(
      sim::NodeId v,
      std::vector<std::pair<std::string, double>>& out) const override {
    const auto vi = static_cast<std::size_t>(v);
    out.emplace_back("flood/has_token", has_token_[vi] != 0 ? 1.0 : 0.0);
    out.emplace_back("flood/token_round",
                     static_cast<double>(token_round_[vi]));
  }

 private:
  sim::NodeId source_;
  std::uint64_t token_;
  int token_bits_;
  FloodMode mode_;
  sim::Round halt_round_;
  sim::Message msg_;
  std::vector<char> has_token_;
  std::vector<char> done_;
  std::vector<std::int32_t> token_round_;
};

}  // namespace

std::unique_ptr<sim::SoAModel> FloodFactory::createSoA(
    sim::NodeId num_nodes) const {
  DYNET_CHECK(0 <= source_ && source_ < num_nodes)
      << "flood source " << source_ << " outside [0, " << num_nodes << ")";
  return std::make_unique<FloodSoA>(num_nodes, source_, token_, token_bits_,
                                    mode_, halt_round_);
}

}  // namespace dynet::proto
