#include "sim/engine.h"

#include "faults/fault_injector.h"
#include "obs/prof.h"
#include "obs/sink.h"
#include "sim/phase.h"
#include "sim/soa.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::sim {

int defaultBudgetBits(NodeId num_nodes) {
  DYNET_CHECK(num_nodes >= 1) << "num_nodes=" << num_nodes;
  return 64 + 8 * util::bitWidthFor(static_cast<std::uint64_t>(num_nodes));
}

std::vector<std::unique_ptr<Process>> createProcesses(
    const ProcessFactory& factory, NodeId num_nodes) {
  std::vector<std::unique_ptr<Process>> processes;
  processes.reserve(static_cast<std::size_t>(num_nodes));
  for (NodeId v = 0; v < num_nodes; ++v) {
    processes.push_back(factory.create(v, num_nodes));
  }
  return processes;
}

Engine::Engine(std::vector<std::unique_ptr<Process>> processes,
               std::unique_ptr<Adversary> adversary, EngineConfig config,
               std::uint64_t seed)
    : processes_(std::move(processes)),
      adversary_(std::move(adversary)),
      config_(config),
      seed_(seed) {
  DYNET_CHECK(!processes_.empty()) << "no processes";
  DYNET_CHECK(adversary_ != nullptr) << "no adversary";
  DYNET_CHECK(adversary_->numNodes() == static_cast<NodeId>(processes_.size()))
      << "adversary nodes " << adversary_->numNodes() << " != processes "
      << processes_.size();
  n_ = static_cast<NodeId>(processes_.size());
  init();
}

Engine::Engine(const ProcessFactory& factory,
               std::unique_ptr<Adversary> adversary, EngineConfig config,
               std::uint64_t seed)
    : adversary_(std::move(adversary)), config_(config), seed_(seed) {
  DYNET_CHECK(adversary_ != nullptr) << "no adversary";
  n_ = adversary_->numNodes();
  DYNET_CHECK(n_ >= 1) << "adversary has " << n_ << " nodes";
  // Anonymous mode keeps the object path: SoA models address state by
  // real node id, which is exactly what the mode hides.  Duplex mode does
  // too: the SoA delivery loops implement send-xor-receive only.
  if (!config_.anonymous && !config_.duplex) {
    soa_ = factory.createSoA(n_);
  }
  if (soa_ == nullptr) {
    processes_ = createProcesses(factory, n_);
  }
  init();
}

void Engine::init() {
  budget_bits_ = config_.msg_budget_bits > 0 ? config_.msg_budget_bits
                                             : defaultBudgetBits(n_);
  DYNET_CHECK(budget_bits_ <= Message::kCapacityBits)
      << "budget " << budget_bits_ << " exceeds message capacity";
  const auto np = static_cast<std::size_t>(n_);
  result_.done_round.assign(np, -1);
  result_.bits_per_node.assign(np, 0);
  ws_.actions.resize(np);
  ws_.sending.resize(np);
  // Per-node coin-key prefixes: fromNodeKey yields the exact
  // CoinStream(seed, node, round) streams at half the construction hashing.
  ws_.coin_keys.resize(np);
  for (NodeId v = 0; v < n_; ++v) {
    ws_.coin_keys[static_cast<std::size_t>(v)] =
        util::hashCombine(seed_, static_cast<std::uint64_t>(v));
  }
  if (config_.metrics != nullptr) {
    obs_ = std::make_unique<EngineObs>(config_.metrics);
    config_.metrics->registry.gauge("engine/num_nodes")
        ->set(static_cast<double>(n_));
    config_.metrics->registry.gauge("engine/budget_bits")
        ->set(static_cast<double>(budget_bits_));
  }
}

Engine::~Engine() = default;

const Process& Engine::process(NodeId v) const {
  DYNET_CHECK(soa_ == nullptr)
      << "process(" << v << ") on the SoA path; use nodeDone/nodeOutput/"
      << "stateDigest, which work on both representations";
  return *processes_[static_cast<std::size_t>(v)];
}

bool Engine::nodeDone(NodeId v) const {
  const auto vi = static_cast<std::size_t>(v);
  return soa_ != nullptr ? soa_->doneData()[vi] != 0
                         : processes_[vi]->done();
}

std::uint64_t Engine::nodeOutput(NodeId v) const {
  return soa_ != nullptr ? soa_->output(v)
                         : processes_[static_cast<std::size_t>(v)]->output();
}

std::uint64_t Engine::stateDigest(NodeId v) const {
  return soa_ != nullptr
             ? soa_->stateDigest(v)
             : processes_[static_cast<std::size_t>(v)]->stateDigest();
}

void Engine::setFaultInjector(
    std::shared_ptr<const faults::FaultInjector> injector) {
  DYNET_CHECK(round_ == 0) << "fault injector attached mid-run";
  if (injector != nullptr) {
    DYNET_CHECK(injector->plan().numNodes() == n_)
        << "fault plan nodes " << injector->plan().numNodes()
        << " != processes " << n_;
  }
  injector_ = std::move(injector);
  if (injector_ != nullptr) {
    ws_.alive.assign(static_cast<std::size_t>(n_), 1);
    ws_.crash_counted.assign(static_cast<std::size_t>(n_), 0);
  }
}

bool Engine::allDone() const {
  if (soa_ != nullptr) {
    return allLiveDone(*soa_, n_, injector_.get(), round_);
  }
  return allLiveDone(processes_, injector_.get(), round_);
}

bool Engine::step() {
  if (round_ >= config_.max_rounds) {
    return false;
  }
  ++round_;

  RoundContext ctx;
  ctx.processes = &processes_;
  ctx.adversary = adversary_.get();
  ctx.config = &config_;
  ctx.injector = injector_.get();
  ctx.ws = &ws_;
  ctx.result = &result_;
  ctx.topologies = &topologies_;
  ctx.action_trace = &actions_;
  ctx.obs = obs_.get();
  ctx.seed = seed_;
  ctx.budget_bits = budget_bits_;
  ctx.n = n_;
  ctx.soa = soa_.get();

  ctx.round = round_;
  ctx.faulty = injector_ != nullptr;
  ctx.bits_before = result_.bits_sent;
  ctx.messages_before = result_.messages_sent;
  obs::TraceWriter* tracer = obs_ != nullptr ? obs_->trace : nullptr;
  ctx.span_start = tracer != nullptr ? tracer->nowUs() : 0.0;

  faultPhase(ctx);
  computePhase(ctx);
  adversaryPhase(ctx);
  deliveryPhase(ctx);
  observePhase(ctx);
  return true;
}

void Engine::finalizeMetrics() {
  if (obs_ == nullptr) {
    return;
  }
  auto& reg = obs_->sink->registry;
  reg.gauge("engine/rounds")->set(static_cast<double>(result_.rounds_executed));
  reg.gauge("engine/all_done")->set(result_.all_done ? 1.0 : 0.0);
  reg.gauge("engine/all_done_round")
      ->set(static_cast<double>(result_.all_done_round));
  reg.gauge("engine/max_bits_per_node")
      ->set(static_cast<double>(result_.max_bits_per_node));
  // Execution-shape gauges (reserved soa// prefix, docs/OBSERVABILITY.md):
  // which state representation ran and which way fault-free SoA delivery
  // walked.  Allowed to differ between the object and SoA paths, exactly
  // like topology/.
  reg.gauge("soa//active")->set(soa_ != nullptr ? 1.0 : 0.0);
  reg.gauge("soa//pull_rounds")
      ->set(static_cast<double>(ws_.soa_pull_rounds));
  obs::Series* node_bits = reg.series("node/bits_sent");
  obs::Series* node_done = reg.series("node/done_round");
  std::vector<std::pair<std::string, double>> exported;
  for (NodeId v = 0; v < n_; ++v) {
    const auto idx = static_cast<std::size_t>(v);
    node_bits->setAt(idx, static_cast<double>(result_.bits_per_node[idx]));
    node_done->setAt(idx, static_cast<double>(result_.done_round[idx]));
    exported.clear();
    if (soa_ != nullptr) {
      soa_->exportMetrics(v, exported);
    } else {
      processes_[idx]->exportMetrics(exported);
    }
    for (const auto& [key, value] : exported) {
      reg.series("node/" + key)->setAt(idx, value);
    }
  }
}

RunResult Engine::run() {
  DYNET_PROF("engine/run");
  while (round_ < config_.max_rounds) {
    if (config_.stop_when_all_done && result_.all_done) {
      break;
    }
    step();
  }
  finalizeMetrics();
  return result_;
}

}  // namespace dynet::sim
