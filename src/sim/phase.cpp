#include "sim/phase.h"

#include <cstring>
#include <utility>

#include "faults/fault_injector.h"
#include "obs/sink.h"
#include "sim/soa.h"
#include "sim/soa_exec.h"
#include "util/check.h"

namespace dynet::sim {

EngineObs::EngineObs(obs::MetricsSink* s) : sink(s), trace(s->trace) {
  auto& reg = s->registry;
  messages_sent = reg.counter("engine/messages_sent");
  bits_sent = reg.counter("engine/bits_sent");
  messages_dropped = reg.counter("faults/messages_dropped");
  messages_corrupted = reg.counter("faults/messages_corrupted");
  crashes = reg.counter("faults/crashes");
  restarts = reg.counter("faults/restarts");
  // Message payloads are budget-capped at O(log N) + constant bits;
  // power-of-two edges up to 4096 cover every budget the repo uses.
  bits_per_send = reg.histogram(
      "engine/bits_per_send",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096});
  round_bits = reg.series("round/bits_sent");
  round_messages = reg.series("round/messages_sent");
  topo_incremental = reg.counter("topology/incremental_rounds");
  topo_full = reg.counter("topology/full_builds");
}

bool allLiveDone(const std::vector<std::unique_ptr<Process>>& processes,
                 const faults::FaultInjector* injector, Round round) {
  for (NodeId v = 0; v < static_cast<NodeId>(processes.size()); ++v) {
    if (injector != nullptr && injector->isCrashed(v, round)) {
      continue;  // crashed nodes cannot hold the run open
    }
    if (!processes[static_cast<std::size_t>(v)]->done()) {
      return false;
    }
  }
  return true;
}

bool allLiveDone(const SoAModel& model, NodeId n,
                 const faults::FaultInjector* injector, Round round) {
  const char* const done = model.doneData();
  if (injector == nullptr) {
    return std::memchr(done, 0, static_cast<std::size_t>(n)) == nullptr;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (injector->isCrashed(v, round)) {
      continue;  // crashed nodes cannot hold the run open
    }
    if (done[static_cast<std::size_t>(v)] == 0) {
      return false;
    }
  }
  return true;
}

namespace {

obs::TraceWriter* tracerOf(const RoundContext& ctx) {
  return ctx.obs != nullptr ? ctx.obs->trace : nullptr;
}

void closeSpan(RoundContext& ctx, const char* span_name) {
  obs::TraceWriter* tracer = tracerOf(ctx);
  if (tracer == nullptr) {
    return;
  }
  const double now = tracer->nowUs();
  tracer->span(span_name, ctx.span_start, now,
               {{"round", static_cast<double>(ctx.round)}});
  ctx.span_start = now;
}

}  // namespace

// Applies this round's scheduled restarts (state re-created, not resumed)
// and crash transitions before any node acts.
void faultPhase(RoundContext& ctx) {
  if (!ctx.faulty) {
    return;
  }
  EngineWorkspace& ws = *ctx.ws;
  RunResult& result = *ctx.result;
  if (!ctx.injector->plan().affectsLiveness()) {
    // Drop/corrupt-only plans never change the live mask, which
    // Engine::setFaultInjector filled with ones: no restart or crash branch
    // below could ever fire without a crash/restart schedule.
    closeSpan(ctx, "fault_hook");
    return;
  }
  ws.alive.assign(static_cast<std::size_t>(ctx.n), 1);
  for (NodeId v = 0; v < ctx.n; ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (ctx.injector->restartsAt(v, ctx.round)) {
      if (ctx.soa != nullptr) {
        ctx.soa->resetNode(v);
      } else {
        (*ctx.processes)[idx] = ctx.injector->freshProcess(v, ctx.n);
      }
      ws.crash_counted[idx] = 0;
      ++result.restarts;
      if (ctx.obs != nullptr) {
        ctx.obs->restarts->inc();
      }
    }
    if (ctx.injector->isCrashed(v, ctx.round)) {
      if (ws.crash_counted[idx] == 0) {
        ws.crash_counted[idx] = 1;
        ++result.crashes;
        if (ctx.obs != nullptr) {
          ctx.obs->crashes->inc();
        }
      }
      ws.alive[idx] = 0;
    }
  }
  closeSpan(ctx, "fault_hook");
}

// Coins flip, each live node decides its action; crashed nodes decide
// nothing and emit nothing.  The object walk is the SoA walks' single
// chunk: the same tallySend accounting (sim/soa_exec.h) into one
// SendTally, folded once at the end.  Every Action write is paired with
// its send-column byte (EngineWorkspace::sending), which the delivery
// loops probe instead of the Action array.
void computePhase(RoundContext& ctx) {
  EngineWorkspace& ws = *ctx.ws;
  RunResult& result = *ctx.result;
  if (ctx.soa != nullptr) {
    // The model fills every action slot and accounts its sends chunk by
    // chunk (sim/soa_exec.h).
    ctx.soa->computeAll(ctx);
    closeSpan(ctx, "process_step");
    return;
  }
  auto& processes = *ctx.processes;
  obs::Histogram* const bits_per_send =
      ctx.obs != nullptr ? ctx.obs->bits_per_send : nullptr;
  SendTally tally;
  for (NodeId v = 0; v < ctx.n; ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (ctx.faulty && ws.alive[idx] == 0) {
      ws.actions[idx] = Action{};
      ws.sending[idx] = 0;
      continue;
    }
    util::CoinStream coins = util::CoinStream::fromNodeKey(
        ws.coin_keys[idx], static_cast<std::uint64_t>(ctx.round));
    ws.actions[idx] = processes[idx]->onRound(ctx.round, coins);
    const Action& a = ws.actions[idx];
    ws.sending[idx] = a.send ? 1 : 0;
    if (a.send) {
      tallySend(ctx, result.bits_per_node.data(), tally, bits_per_send, v,
                a.msg.bitSize());
    }
  }
  flushSendSizes(tally, bits_per_send);
  foldSends(result, tally);
  closeSpan(ctx, "process_step");
}

// The adversary fixes the topology after observing the actions; the engine
// checks the model's connectivity invariant.  Delta-native adversaries get
// first refusal via topologyUpdate and may reuse or patch the previous
// round's graph; the rest build it in topology().
void adversaryPhase(RoundContext& ctx) {
  RoundObservation obs{ctx.ws->actions};
  net::GraphPtr g;
  bool incremental = false;
  TopologyUpdate update;
  if (ctx.adversary->topologyUpdate(ctx.round, obs, ctx.ws->prev_topology,
                                    update)) {
    g = std::move(update.graph);
    incremental = update.is_delta;
  }
  if (g == nullptr) {
    g = ctx.adversary->topology(ctx.round, obs);
  }
  DYNET_CHECK(g != nullptr) << "adversary returned null topology";
  DYNET_CHECK(g->numNodes() == ctx.n) << "topology node count mismatch";
  if (ctx.obs != nullptr) {
    (incremental ? ctx.obs->topo_incremental : ctx.obs->topo_full)->inc();
  }
  ctx.ws->prev_topology = g;
  if (ctx.config->check_connectivity) {
    if (ctx.faulty && ctx.injector->plan().hasCrashes()) {
      DYNET_CHECK(net::connectedOn(*g, ctx.ws->alive))
          << "round " << ctx.round
          << " live-node subgraph disconnected (crashed nodes excluded)";
    } else {
      DYNET_CHECK(g->connected())
          << "round " << ctx.round << " topology disconnected ("
          << g->componentCount() << " components)";
    }
  }
  if (obs::TraceWriter* tracer = tracerOf(ctx); tracer != nullptr) {
    const double now = tracer->nowUs();
    tracer->span("adversary_pick", ctx.span_start, now,
                 {{"round", static_cast<double>(ctx.round)},
                  {"edges", static_cast<double>(g->numEdges())}});
    ctx.span_start = now;
  }
  ctx.topology = std::move(g);
}

namespace {

// Anonymous-mode port permutation (EngineConfig::anonymous): the inbox a
// receiver sees is the canonical ascending-sender list, after the fault
// filter, reordered by a Fisher-Yates shuffle keyed on (seed, receiver,
// round).  A port is the message's position in the shuffled inbox: stable
// within a round, carrying no identity across rounds.
std::uint64_t anonKey(const RoundContext& ctx, NodeId v) {
  return util::hashCombine(
      util::hashCombine(ctx.seed ^ 0x616e6f6e706f7274ULL,
                        static_cast<std::uint64_t>(v)),
      static_cast<std::uint64_t>(ctx.round));
}

void anonShuffle(std::vector<Message>& inbox, const RoundContext& ctx,
                 NodeId v) {
  util::Rng rng(anonKey(ctx, v));
  for (std::size_t i = inbox.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.below(i));
    std::swap(inbox[i - 1], inbox[j]);
  }
}

}  // namespace

// Every receiving node gets the messages of its sending neighbors, in
// ascending sender-id order: the model gives messages no arrival order, so
// the engine defines a canonical one that any simulating party can
// reproduce, and Graph::neighbors() already returns it (the sorted-CSR
// invariant).  The fault filter (sim/soa_exec.h) sits between the send
// decision and onDeliver: each (sender, receiver) delivery may be dropped
// or corrupted; crashed receivers get nothing at all.
void deliveryPhase(RoundContext& ctx) {
  if (ctx.soa != nullptr) {
    // SoA path: the model walks the flat arrays itself (soaDeliverAll
    // shares the fault filter and canonical order of the loop below).
    ctx.soa->deliverAll(ctx);
    closeSpan(ctx, "delivery");
    return;
  }
  auto& processes = *ctx.processes;
  EngineWorkspace& ws = *ctx.ws;
  const net::Graph& g = *ctx.topology;
  const Action* const actions = ws.actions.data();
  const char* const sending = ws.sending.data();
  FaultTally tally;
  for (NodeId v = 0; v < ctx.n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (ctx.faulty && ws.alive[vi] == 0) {
      continue;  // crashed: no onDeliver
    }
    const bool sent = sending[vi] != 0;
    ws.inbox.clear();
    // Send-xor-receive (the paper's model): a sender hears nothing this
    // round.  Under EngineConfig::duplex (broadcast CONGEST for the
    // distance-computation suite) a sender collects its sending
    // neighbors' messages like any receiver, with sent=true.
    if (!sent || ctx.config->duplex) {
      for (const NodeId u : g.neighbors(v)) {
        const auto ui = static_cast<std::size_t>(u);
        if (sending[ui] == 0) {
          continue;
        }
        if (!ctx.faulty) {
          ws.inbox.push_back(actions[ui].msg);
          continue;
        }
        filterDelivery(ctx, u, v, actions[ui].msg, tally,
                       [&ws](const Message& msg) { ws.inbox.push_back(msg); });
      }
      if (ctx.config->anonymous) {
        anonShuffle(ws.inbox, ctx, v);
      }
    }
    processes[vi]->onDeliver(ctx.round, sent, ws.inbox);
  }
  addFaultTally(ctx, tally);
  closeSpan(ctx, "delivery");
}

// End-of-round accounting: per-node done rounds, the per-round bit series,
// the metrics sink's round observations, and the all-done check.
void observePhase(RoundContext& ctx) {
  auto& processes = *ctx.processes;
  RunResult& result = *ctx.result;
  if (ctx.soa != nullptr) {
    // The SoA models keep done in a byte column: scan it directly, chunk by
    // chunk (sim/soa_exec.h).
    const char* const soa_done = ctx.soa->doneData();
    Round* const done_round = result.done_round.data();
    forEachChunk(*ctx.ws, [&](const SoAChunk& chunk) {
      for (NodeId v = chunk.begin; v < chunk.end; ++v) {
        const auto idx = static_cast<std::size_t>(v);
        if (done_round[idx] < 0 && soa_done[idx] != 0) {
          done_round[idx] = ctx.round;
        }
      }
    });
  } else {
    for (NodeId v = 0; v < ctx.n; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (result.done_round[idx] < 0 && processes[idx]->done()) {
        result.done_round[idx] = ctx.round;
      }
    }
  }
  result.rounds_executed = ctx.round;
  const std::uint64_t round_bits = result.bits_sent - ctx.bits_before;
  const std::uint64_t round_messages =
      result.messages_sent - ctx.messages_before;
  result.bits_per_round.push_back(round_bits);
  if (ctx.obs != nullptr) {
    ctx.obs->round_bits->append(static_cast<double>(round_bits));
    ctx.obs->round_messages->append(static_cast<double>(round_messages));
    ctx.obs->messages_sent->inc(round_messages);
    ctx.obs->bits_sent->inc(round_bits);
    if (ctx.obs->trace != nullptr) {
      const double now = ctx.obs->trace->nowUs();
      ctx.obs->trace->counter("bits_sent/round", now,
                              static_cast<double>(round_bits));
      ctx.obs->trace->counter("messages_sent/round", now,
                              static_cast<double>(round_messages));
    }
  }
  if (!result.all_done &&
      (ctx.soa != nullptr
           ? allLiveDone(*ctx.soa, ctx.n, ctx.injector, ctx.round)
           : allLiveDone(processes, ctx.injector, ctx.round))) {
    result.all_done = true;
    result.all_done_round = ctx.round;
  }
}

}  // namespace dynet::sim
