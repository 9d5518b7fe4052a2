// Compute / delivery loops shared by every SoAModel.
//
// Send column.  Every compute loop (both walks of soaComputeAll and the
// object computePhase) writes EngineWorkspace::sending[v] =
// actions[v].send right where it writes the Action — crashed nodes get 0
// next to their Action{} — and nowhere else.  Every delivery loop then
// tests membership in those n bytes instead of striding the 48-byte Action
// array; payloads are still read from ws.actions, and only for actual
// senders.  So when a round's compute starts, sending[v] is last round's
// actions[v].send (0 before round 1, when every Action is Action{}), and
// a model whose nodes hold one of two actions can tell which one
// actions[v] holds from that byte alone: FloodSoA, whose every send
// carries its one token message, leaves an Action it would rewrite to
// the same value untouched.
//
// Where the SoA path earns its keep against the object engine:
//   * compute fuses send-side accounting into its one ascending walk, and
//     the fault-free walk collects the round's senders (ascending) into
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
// The loops reproduce the object path exactly: same live-mask gating, same
// CoinStream streams, same canonical ascending-sender delivery order (the
// Graph neighbor lists are sorted), same drop/corrupt fates and accounting.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "faults/fault_injector.h"
#include "net/graph.h"
#include "obs/metrics.h"
#include "sim/phase.h"
#include "sim/soa.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::sim {

/// accountSentAction's budget check, entered only once it is known to fail
/// (the cold-path idiom of util/bitio.h): throws the CheckError naming the
/// node, the round, the message size and the budget.
[[noreturn, gnu::cold, gnu::noinline]] inline void sendOverBudget(
    const RoundContext& ctx, NodeId v, const Action& a) {
  DYNET_CHECK(a.msg.bitSize() <= ctx.budget_bits)
      << "node " << v << " round " << ctx.round << " message of "
      << a.msg.bitSize() << " bits exceeds budget " << ctx.budget_bits;
  std::abort();  // unreachable: called only when the check fails
}

/// Send-side accounting shared by the object and SoA compute paths: budget
/// check, global/per-node bit counters, and the bits_per_send histogram.
/// Must run in ascending node order so histogram observations land in the
/// legacy sequence.  The failing budget check stays out of line so this
/// body inlines into every compute loop.
inline void accountSentAction(RoundContext& ctx, RunResult& result, NodeId v,
                              const Action& a) {
  const auto idx = static_cast<std::size_t>(v);
  if (a.msg.bitSize() > ctx.budget_bits) [[unlikely]] {
    sendOverBudget(ctx, v, a);
  }
  ++result.messages_sent;
  result.bits_sent += static_cast<std::uint64_t>(a.msg.bitSize());
  result.bits_per_node[idx] += static_cast<std::uint64_t>(a.msg.bitSize());
  if (result.bits_per_node[idx] > result.max_bits_per_node) {
    result.max_bits_per_node = result.bits_per_node[idx];
  }
  if (ctx.obs != nullptr) {
    ctx.obs->bits_per_send->observe(static_cast<double>(a.msg.bitSize()));
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

/// computePhase body over a model providing
///   computeNode(RoundContext&, NodeId v, std::uint64_t node_key)
/// which must leave ctx.ws->actions[v] fully assigned (receivers included —
/// a stale payload from an earlier round would break action-trace
/// byte-identity; an Action already equal to this round's may stay as it
/// is, see the send column above)
/// and derive any coins it draws from the node key via
/// util::CoinStream::roundKey / firstCoin / fromRoundKey, reproducing the
/// object path's CoinStream::fromNodeKey(node_key, round) stream draw for
/// draw.
///
/// One ascending walk per round, with send accounting fused into it and
/// the send column written beside the Action.  The fault-free walk also
/// collects the round's senders for delivery's push walk; the faulty walk
/// gives crashed nodes Action{}.
template <typename Model>
void soaComputeAll(RoundContext& ctx, Model& model) {
  EngineWorkspace& ws = *ctx.ws;
  RunResult& result = *ctx.result;
  const std::uint64_t* const keys = ws.coin_keys.data();
  Action* const actions = ws.actions.data();
  char* const sending = ws.sending.data();
  if (!ctx.faulty) {
    ws.soa_senders.clear();
    for (NodeId v = 0; v < ctx.n; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      model.computeNode(ctx, v, keys[idx]);
      const Action& a = actions[idx];
      sending[idx] = a.send ? 1 : 0;
      if (a.send) {
        accountSentAction(ctx, result, v, a);
        ws.soa_senders.push_back(v);
      }
    }
    return;
  }
  for (NodeId v = 0; v < ctx.n; ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (ws.alive[idx] == 0) {
      actions[idx] = Action{};
      sending[idx] = 0;
      continue;
    }
    model.computeNode(ctx, v, keys[idx]);
    sending[idx] = actions[idx].send ? 1 : 0;
    if (actions[idx].send) {
      accountSentAction(ctx, result, v, actions[idx]);
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
/// Crashed nodes get neither call, exactly like the object path.
template <typename Model>
void soaDeliverAll(RoundContext& ctx, Model& model) {
  EngineWorkspace& ws = *ctx.ws;
  const net::Graph& g = *ctx.topology;
  const Action* const actions = ws.actions.data();
  const char* const sending = ws.sending.data();
  if (!ctx.faulty) {
    if (!pullWalkWins(static_cast<std::uint64_t>(ctx.n),
                      ws.soa_senders.size(), g.numEdges())) {
      // Push walk over the sender list soaComputeAll collected this round.
      // Loop interchange from the pull scan: outer ascending senders, inner
      // the sender's (sorted) neighbors, so every receiver still takes its
      // onMessage calls in ascending sender order while non-senders'
      // neighbor lists are never walked at all.  No drop/corrupt fates are
      // possible fault-free.
      for (const NodeId u : ws.soa_senders) {
        const Message& msg = actions[static_cast<std::size_t>(u)].msg;
        for (const NodeId v : g.neighbors(u)) {
          if (sending[static_cast<std::size_t>(v)] == 0) {
            model.onMessage(ctx, v, u, msg, /*pristine=*/true);
          }
        }
      }
      model.afterDeliverAllClean(ctx);
      return;
    }
    ++ws.soa_pull_rounds;  // senders dominate: the pull walk below
  }
  FaultTally tally;
  for (NodeId v = 0; v < ctx.n; ++v) {
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
  addFaultTally(ctx, tally);
}

}  // namespace dynet::sim
