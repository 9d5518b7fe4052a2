// Compute / delivery loops shared by every SoAModel.
//
// Send column.  Every compute walk (both walks of soaComputeAll and the
// object computePhase) writes EngineWorkspace::sending[v] — 1 iff
// actions[v].send — right where it settles node v's Action (crashed nodes
// get 0 next to their Action{}), and nowhere else.  Every delivery loop
// then tests membership in those n bytes instead of striding the 48-byte
// Action array; payloads are still read from ws.actions, and only for
// actual senders.  So when a round's compute starts, sending[v] is last
// round's actions[v].send (0 before round 1, when every Action is
// Action{}), and a model whose nodes hold one of two actions can tell
// which one actions[v] holds from that byte alone: FloodSoA, whose every
// send carries its one token message, leaves an Action it would rewrite
// to the same value untouched.  The SoA walks take the byte, and the
// send's size, from computeNode's return value (below), so a round whose
// actions did not change reads no Action at all.
//
// Where the SoA path earns its keep against the object engine:
//   * compute fuses send-side accounting into its ascending walk, and the
//     fault-free walk collects the round's senders (ascending) into
//     EngineWorkspace::soa_senders;
//   * models receive the per-node coin *key* and derive only the draws
//     they actually make (util::CoinStream::firstCoin), so a flood
//     non-holder pays zero hashing;
//   * fault-free delivery is direction-optimizing (Beamer, Asanović and
//     Patterson, SC 2012): it walks whichever side of the round touches
//     fewer items.  With S the senders, R = n - |S| the receivers and m
//     the edges, the sender-major *push* walk visits |S| rows plus their
//     entries, the receiver-major *pull* walk scans all n nodes, then |R|
//     rows plus their entries.  Taking the mean degree 2m/n for every
//     row's length, push costs |S|(1 + 2m/n) and pull n + (n - |S|)(1 +
//     2m/n), so pull wins iff (2|S| - n)(n + 2m) > n^2 (pullWalkWins; a
//     tie stays push).  A saturated flood, where nearly everyone sends,
//     pulls; a sparse frontier pushes.  Both are byte-identical to the
//     object path: push is the loop interchange of pull with the outer
//     loop ascending in sender id, so any fixed receiver still sees its
//     messages in ascending sender order (exactly the pull order: sorted
//     neighbor lists filtered by send), and cross-node reads in either
//     direction touch only frozen sender state (send-xor-receive).  Push
//     replaces the per-node afterDeliver tail by the model's
//     afterDeliverAllClean bulk hook, sound because every live node gets
//     the hook in a fault-free round and no model hook reads what it
//     writes; pull is the receiver-major loop faulty rounds also run,
//     per-node afterDeliver included.
//
// Node-range chunks.  An SoA run cuts [0, n) into k contiguous chunks whose
// bounds are multiples of 64 nodes, k = min(pool workers, n /
// kNodesPerChunk), fixed at engine construction (Engine::initChunks).  Both
// compute walks, the pull walk (fault-free and faulty) and observePhase's
// done scan run chunk by chunk through forEachChunk: inline when k = 1 (no
// pool call), else one util::ThreadPool::shared() index per chunk.  The
// push walk stays serial: it writes receiver state sender by sender, so
// its writes do not fall into node ranges.  The rules that keep chunks
// race-free and the result byte-identical for every k:
//   * chunk c writes only its own node range of the workspace, model and
//     RunResult columns, plus its own SoAChunk; with 64-node bounds,
//     neighbouring nodes' bytes stay on one thread, and two chunks can
//     share at most the one cache line of a column at their bound;
//   * cross-node reads touch only senders' frozen state — actions[u] and
//     the model's columns of a sender u, which no delivery hook writes
//     (send-xor-receive; SoA runs are never duplex);
//   * per-chunk results are merged in chunk order after the walk: the
//     sender runs, read in chunk order, are the round's ascending senders;
//     message, bit and fault counts are summed; the running
//     max_bits_per_node is the maximum of the chunks'; and each chunk's
//     bits_per_send histogram goes through Histogram::merge, whose counts,
//     integer-valued sums, min and max do not depend on order;
//   * a chunk's CheckError (a budget violation, a foreign token) is caught
//     on its own thread, and once every chunk has finished the lowest
//     chunk's is rethrown: a node's step reads nothing another node wrote
//     this walk, so that is the error a serial walk would have thrown
//     first.
//
// The loops reproduce the object path exactly: same live-mask gating, same
// CoinStream streams, same canonical ascending-sender delivery order (the
// Graph neighbor lists are sorted), same drop/corrupt fates and accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "faults/fault_injector.h"
#include "net/graph.h"
#include "obs/metrics.h"
#include "sim/phase.h"
#include "sim/soa.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dynet::sim {

/// computeNode's return value for a node that sends nothing this round.
inline constexpr int kNoSend = -1;

/// Nodes per node-range chunk: a run gets a second chunk at 2 *
/// kNodesPerChunk nodes.  Read off BENCH_scale.json (flood under 16-edge
/// churn, 4 threads, trials of each chunk size alternating in one
/// process): from n = 8192 up every split beat the serial walk, while at
/// n = 4096 the split trials' upper quartile was 2.7x the serial trials'
/// and at n = 2048 a two-way split multiplied the median by five.  It also
/// keeps every run below n = 8192 serial, such as bench_sim_perf's
/// single-core soa-vs-objects legs.
inline constexpr NodeId kNodesPerChunk = 4096;

/// tallySend's budget check, entered only once it is known to fail (the
/// cold-path idiom of util/bitio.h): throws the CheckError naming the node,
/// the round, the message size and the budget.
[[noreturn, gnu::cold, gnu::noinline]] inline void sendOverBudget(
    const RoundContext& ctx, NodeId v, int bits) {
  DYNET_CHECK(bits <= ctx.budget_bits)
      << "node " << v << " round " << ctx.round << " message of " << bits
      << " bits exceeds budget " << ctx.budget_bits;
  std::abort();  // unreachable: called only when the check fails
}

/// Makes the bits_per_send observations `tally` holds back (a no-op
/// without a sink); every walk calls it once it has walked its range.
inline void flushSendSizes(SendTally& tally, obs::Histogram* bits_per_send) {
  if (tally.run > 0) {
    bits_per_send->observe(static_cast<double>(tally.run_bits), tally.run);
    tally.run = 0;
  }
}

/// Send-side accounting shared by the object and SoA compute walks, for
/// node v sending `bits` bits: the budget check, the walk's totals, v's
/// bits_per_node entry and the walk's running max, and, when
/// `bits_per_send` is not null, the size's observation, held back while
/// sizes repeat.  The failing budget check stays out of line so this body
/// inlines into every walk.
inline void tallySend(const RoundContext& ctx, std::uint64_t* bits_per_node,
                      SendTally& tally, obs::Histogram* bits_per_send,
                      NodeId v, int bits) {
  if (bits > ctx.budget_bits) [[unlikely]] {
    sendOverBudget(ctx, v, bits);
  }
  const auto b = static_cast<std::uint64_t>(bits);
  ++tally.messages;
  tally.bits += b;
  const std::uint64_t node_bits =
      bits_per_node[static_cast<std::size_t>(v)] += b;
  if (node_bits > tally.max_bits_per_node) {
    tally.max_bits_per_node = node_bits;
  }
  if (bits_per_send != nullptr) {
    if (bits != tally.run_bits) {
      flushSendSizes(tally, bits_per_send);
      tally.run_bits = bits;
    }
    ++tally.run;
  }
}

/// Adds one walk's (or one chunk's) send totals to the RunResult.
inline void foldSends(RunResult& result, const SendTally& tally) {
  result.messages_sent += tally.messages;
  result.bits_sent += tally.bits;
  if (tally.max_bits_per_node > result.max_bits_per_node) {
    result.max_bits_per_node = tally.max_bits_per_node;
  }
}

/// Receive-side fault filter shared by the object and SoA delivery loops:
/// draws the fate of sender u's message to receiver v, counts it into
/// `tally`, and calls deliver(payload, pristine) with what v receives — the
/// message itself, or its corrupted copy (pristine = false) when the plan
/// delivers corrupted payloads.  A dropped message, or a corrupted one the
/// link-layer CRC catches, reaches v not at all.
template <typename Deliver>
void filterDelivery(const RoundContext& ctx, NodeId u, NodeId v,
                    const Message& msg, FaultTally& tally, Deliver&& deliver) {
  switch (ctx.injector->deliveryFate(u, v, ctx.round)) {
    case faults::FaultPlan::Fate::kDrop:
      ++tally.dropped;
      return;
    case faults::FaultPlan::Fate::kCorrupt:
      ++tally.corrupted;
      if (ctx.injector->plan().config().deliver_corrupted) {
        deliver(ctx.injector->corrupted(msg, u, v, ctx.round), false);
      }
      return;
    case faults::FaultPlan::Fate::kDeliver:
      deliver(msg, true);
      return;
  }
}

/// Adds a delivery loop's fault tally to the RunResult and the faults/
/// counters.
inline void addFaultTally(RoundContext& ctx, const FaultTally& tally) {
  RunResult& result = *ctx.result;
  result.messages_dropped += tally.dropped;
  result.messages_corrupted += tally.corrupted;
  if (ctx.obs != nullptr) {
    ctx.obs->messages_dropped->inc(tally.dropped);
    ctx.obs->messages_corrupted->inc(tally.corrupted);
  }
}

/// Direction rule of the fault-free delivery walk: true iff the
/// receiver-major pull walk touches fewer items than the sender-major push
/// walk over `senders` of `n` nodes on an `edges`-edge topology, i.e. iff
/// (2|S| - n)(n + 2m) > n^2 (derivation in the header comment).  The
/// product is compared as n + 2m > floor(n^2 / (2|S| - n)), exact for
/// positive integers, so no 64-bit intermediate can overflow.
inline bool pullWalkWins(std::uint64_t n, std::uint64_t senders,
                         std::uint64_t edges) {
  if (2 * senders <= n) {
    return false;
  }
  return n + 2 * edges > n * n / (2 * senders - n);
}

/// Runs body(chunk) for every node-range chunk of the run (header
/// comment): inline when there is one, else one shared-pool index per
/// chunk, rethrowing the lowest chunk's exception once all have finished.
template <typename Body>
void forEachChunk(EngineWorkspace& ws, Body&& body) {
  if (ws.chunks.size() == 1) {
    body(ws.chunks.front());
    return;
  }
  util::ThreadPool::shared().parallelFor(
      ws.chunks.size(), [&](std::size_t c) { body(ws.chunks[c]); });
}

/// computePhase body over a model providing
///   int computeNode(RoundContext&, NodeId v, std::uint64_t node_key)
/// which must leave ctx.ws->actions[v] fully assigned (receivers included —
/// a stale payload from an earlier round would break action-trace
/// byte-identity; an Action already equal to this round's may stay as it
/// is, see the send column above), return actions[v].msg.bitSize() when
/// actions[v].send and kNoSend otherwise, and derive any coins it draws
/// from the node key via util::CoinStream::roundKey / firstCoin /
/// fromRoundKey, reproducing the object path's
/// CoinStream::fromNodeKey(node_key, round) stream draw for draw.  It may
/// write only node v's state (header comment, node-range chunks).
///
/// One ascending walk per chunk, with send accounting from computeNode's
/// return value fused into it and the send column written beside the
/// Action; the chunks' tallies are folded in chunk order afterwards.  The
/// fault-free walk also collects each chunk's senders for delivery's push
/// walk; the faulty walk gives crashed nodes Action{}.
template <typename Model>
void soaComputeAll(RoundContext& ctx, Model& model) {
  EngineWorkspace& ws = *ctx.ws;
  RunResult& result = *ctx.result;
  const std::uint64_t* const keys = ws.coin_keys.data();
  Action* const actions = ws.actions.data();
  char* const sending = ws.sending.data();
  std::uint64_t* const bits_per_node = result.bits_per_node.data();
  forEachChunk(ws, [&](SoAChunk& chunk) {
    SendTally tally;
    obs::Histogram* const bits_per_send = chunk.bits_per_send;
    if (!ctx.faulty) {
      NodeId* const run = ws.soa_senders.data() + chunk.begin;
      std::size_t senders = 0;
      for (NodeId v = chunk.begin; v < chunk.end; ++v) {
        const auto idx = static_cast<std::size_t>(v);
        const int bits = model.computeNode(ctx, v, keys[idx]);
        sending[idx] = bits != kNoSend ? 1 : 0;
        if (bits != kNoSend) {
          tallySend(ctx, bits_per_node, tally, bits_per_send, v, bits);
          run[senders++] = v;
        }
      }
      chunk.num_senders = senders;
    } else {
      for (NodeId v = chunk.begin; v < chunk.end; ++v) {
        const auto idx = static_cast<std::size_t>(v);
        if (ws.alive[idx] == 0) {
          actions[idx] = Action{};
          sending[idx] = 0;
          continue;
        }
        const int bits = model.computeNode(ctx, v, keys[idx]);
        sending[idx] = bits != kNoSend ? 1 : 0;
        if (bits != kNoSend) {
          tallySend(ctx, bits_per_node, tally, bits_per_send, v, bits);
        }
      }
    }
    flushSendSizes(tally, bits_per_send);
    chunk.sends = tally;
  });
  for (SoAChunk& chunk : ws.chunks) {
    foldSends(result, chunk.sends);
    if (ctx.obs != nullptr && chunk.bits_per_send != ctx.obs->bits_per_send) {
      ctx.obs->bits_per_send->merge(*chunk.bits_per_send);
      chunk.bits_per_send->clear();
    }
  }
}

/// deliveryPhase body over a model providing
///   onMessage(RoundContext&, NodeId v, NodeId u, const Message&, bool
///             pristine)   — one delivered message, ascending sender order;
///                           pristine is false only for corrupted copies
///   afterDeliver(RoundContext&, NodeId v, bool sent)
///                         — end-of-delivery hook (the tail of onDeliver)
///   afterDeliverAllClean(RoundContext&)
///                         — bulk equivalent of calling afterDeliver on
///                           every node after all messages landed; used only
///                           by the fault-free push walk, so it may assume
///                           every node is live.  Models whose afterDeliver
///                           depends on per-node interleaving with onMessage
///                           must not take the push walk.
/// onMessage and afterDeliver may write only receiver v's state and read a
/// sender u's (header comment, node-range chunks).  Crashed nodes get
/// neither call, exactly like the object path.
template <typename Model>
void soaDeliverAll(RoundContext& ctx, Model& model) {
  EngineWorkspace& ws = *ctx.ws;
  const net::Graph& g = *ctx.topology;
  const Action* const actions = ws.actions.data();
  const char* const sending = ws.sending.data();
  if (!ctx.faulty) {
    std::size_t senders = 0;
    for (const SoAChunk& chunk : ws.chunks) {
      senders += chunk.num_senders;
    }
    if (!pullWalkWins(static_cast<std::uint64_t>(ctx.n), senders,
                      g.numEdges())) {
      // Push walk over the senders soaComputeAll collected this round.
      // Loop interchange from the pull scan: outer ascending senders (the
      // chunks' runs in chunk order), inner the sender's (sorted)
      // neighbors, so every receiver still takes its onMessage calls in
      // ascending sender order while non-senders' neighbor lists are never
      // walked at all.  No drop/corrupt fates are possible fault-free.
      for (const SoAChunk& chunk : ws.chunks) {
        const NodeId* const run = ws.soa_senders.data() + chunk.begin;
        for (std::size_t i = 0; i < chunk.num_senders; ++i) {
          const NodeId u = run[i];
          const Message& msg = actions[static_cast<std::size_t>(u)].msg;
          for (const NodeId v : g.neighbors(u)) {
            if (sending[static_cast<std::size_t>(v)] == 0) {
              model.onMessage(ctx, v, u, msg, /*pristine=*/true);
            }
          }
        }
      }
      model.afterDeliverAllClean(ctx);
      return;
    }
    ++ws.soa_pull_rounds;  // senders dominate: the pull walk below
  }
  forEachChunk(ws, [&](SoAChunk& chunk) {
    FaultTally tally;
    for (NodeId v = chunk.begin; v < chunk.end; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (ctx.faulty && ws.alive[vi] == 0) {
        continue;  // crashed: no delivery
      }
      if (sending[vi] != 0) {
        model.afterDeliver(ctx, v, true);
        continue;
      }
      for (const NodeId u : g.neighbors(v)) {
        const auto ui = static_cast<std::size_t>(u);
        if (sending[ui] == 0) {
          continue;
        }
        if (!ctx.faulty) {
          model.onMessage(ctx, v, u, actions[ui].msg, /*pristine=*/true);
          continue;
        }
        filterDelivery(ctx, u, v, actions[ui].msg, tally,
                       [&](const Message& msg, bool pristine) {
                         model.onMessage(ctx, v, u, msg, pristine);
                       });
      }
      model.afterDeliver(ctx, v, false);
    }
    chunk.faults = tally;
  });
  FaultTally tally;
  for (const SoAChunk& chunk : ws.chunks) {
    tally.dropped += chunk.faults.dropped;
    tally.corrupted += chunk.faults.corrupted;
  }
  addFaultTally(ctx, tally);
}

}  // namespace dynet::sim
