#include "protocols/cflood.h"

#include "sim/engine.h"
#include "util/check.h"

namespace dynet::proto {

namespace {

/// Source process: floods and outputs after wait_rounds.
class CFloodSource : public FloodProcess {
 public:
  CFloodSource(sim::NodeId node, std::uint64_t token, int token_bits,
               FloodMode mode, sim::Round wait_rounds)
      : FloodProcess(node, node, token, token_bits, mode, wait_rounds) {}
};

/// Relay: CFLOOD termination is defined by the source's output alone, so
/// relays report done() immediately (they still relay forever).
class CFloodRelay : public FloodProcess {
 public:
  using FloodProcess::FloodProcess;
  bool done() const override { return true; }
};

}  // namespace

std::unique_ptr<sim::Process> CFloodFactory::create(sim::NodeId node,
                                                    sim::NodeId num_nodes) const {
  DYNET_CHECK(0 <= source_ && source_ < num_nodes)
      << "cflood source " << source_ << " outside [0, " << num_nodes << ")";
  if (node == source_) {
    return std::make_unique<CFloodSource>(node, token_, token_bits_, mode_,
                                          wait_rounds_);
  }
  // Non-sources relay forever and are trivially "done": CFLOOD terminates
  // when the source outputs.
  return std::make_unique<CFloodRelay>(node, source_, token_, token_bits_,
                                       mode_, /*halt_round=*/0);
}

int tokenHolderCount(const sim::Engine& engine) {
  int holders = 0;
  for (sim::NodeId v = 0; v < engine.numNodes(); ++v) {
    const auto* fp = dynamic_cast<const FloodProcess*>(&engine.process(v));
    DYNET_CHECK(fp != nullptr) << "process " << v << " is not a FloodProcess";
    if (fp->hasToken()) {
      ++holders;
    }
  }
  return holders;
}

bool allHoldToken(const sim::Engine& engine) {
  return tokenHolderCount(engine) == engine.numNodes();
}

}  // namespace dynet::proto
