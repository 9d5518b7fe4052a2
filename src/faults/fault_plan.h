// Deterministic fault schedules for the round engine.
//
// The paper's model is a fully reliable synchronous substrate: every sent
// message reaches all receiving neighbors and nodes never fail.  A FaultPlan
// relaxes that substrate in a *reproducible* way: every fault decision —
// which nodes crash and when, which deliveries are dropped or corrupted —
// is a pure function of (plan seed, addressing tuple), mirroring the
// counter-mode coin construction in util/rng.h.  Two runs with the same
// plan seed inject byte-identical faults, so faulty executions stay as
// replayable as clean ones, and an all-zero plan is observationally
// identical to running without one (tests/faults_test.cpp pins this).
//
// Fault classes (all optional, all off by default):
//   * crash-stop  — a node halts at its scheduled round: it emits nothing
//                   and receives nothing from then on,
//   * restart     — a crashed node comes back after a downtime with its
//                   state RESET (re-created by the ProcessFactory): amnesia,
//                   not resumption,
//   * drop        — an individual delivery (sender, receiver, round) is
//                   lost; other receivers of the same broadcast still get it,
//   * corruption  — an individual delivery has a payload bit flipped; per
//                   config the mangled message is delivered or dropped at
//                   the "network card" (modeling a link-layer CRC).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/process.h"

namespace dynet::faults {

struct FaultConfig {
  /// Fraction of nodes that crash-stop (targets drawn without replacement).
  double crash_fraction = 0;
  /// Crash rounds are uniform in [1, crash_window]; must be >= 1 when
  /// crash_fraction > 0.
  sim::Round crash_window = 64;
  /// Crashed nodes restart (with state reset) after their downtime.
  bool restart = false;
  /// Downtime is uniform in [1, restart_downtime].
  sim::Round restart_downtime = 32;
  /// Per-delivery loss probability.
  double drop_prob = 0;
  /// Per-delivery corruption probability (evaluated on deliveries that
  /// survived the drop draw).
  double corrupt_prob = 0;
  /// true: corrupted messages arrive with a flipped payload bit;
  /// false: the network detects and drops them (they still count as
  /// corrupted, not as dropped).
  bool deliver_corrupted = false;
  /// Explicit (node, crash round) entries applied on top of the random
  /// draws — deterministic targeting for tests and what-if experiments.
  /// An entry overrides any random schedule for that node.
  std::vector<std::pair<sim::NodeId, sim::Round>> scripted_crashes;
  /// Explicit (node, restart round) entries; each node listed here must
  /// also have a crash scheduled strictly before its restart round.
  std::vector<std::pair<sim::NodeId, sim::Round>> scripted_restarts;
};

/// Seed-derived schedule of every fault the injector will ever apply.
class FaultPlan {
 public:
  FaultPlan(sim::NodeId num_nodes, const FaultConfig& config,
            std::uint64_t seed);

  sim::NodeId numNodes() const { return n_; }
  const FaultConfig& config() const { return config_; }

  /// True when no fault of any class can ever fire.
  bool zero() const;
  bool hasCrashes() const { return num_crash_targets_ > 0; }
  /// True when any node has a restart scheduled (random or scripted).
  bool hasRestarts() const;
  /// True when the plan can ever change the live mask.  Drop/corrupt-only
  /// plans return false, which lets the engine fill the mask once per run
  /// instead of clearing it every round (byte-identical: the mask stays
  /// all-ones and no restart/crash transition can fire).
  bool affectsLiveness() const { return hasCrashes() || hasRestarts(); }

  /// Scheduled crash round of v; 0 = never crashes.
  sim::Round crashRound(sim::NodeId v) const;
  /// Scheduled restart round of v; 0 = never restarts.
  sim::Round restartRound(sim::NodeId v) const;

  /// True while v is down: crashRound(v) <= r, and r precedes any restart.
  bool isCrashed(sim::NodeId v, sim::Round r) const;
  /// True exactly at the round v comes back (it participates that round).
  bool restartsAt(sim::NodeId v, sim::Round r) const;

  enum class Fate { kDeliver, kDrop, kCorrupt };

  /// Fate of the (sender -> receiver, round) delivery; pure in the tuple.
  Fate deliveryFate(sim::NodeId sender, sim::NodeId receiver,
                    sim::Round round) const;

  /// Payload bit to flip for a corrupted delivery; in [0, bit_size).
  int corruptBitIndex(sim::NodeId sender, sim::NodeId receiver,
                      sim::Round round, int bit_size) const;

 private:
  void drawRandomCrashes();

  sim::NodeId n_;
  FaultConfig config_;
  std::uint64_t seed_;
  sim::NodeId num_crash_targets_ = 0;
  std::vector<sim::Round> crash_round_;    // 0 = never
  std::vector<sim::Round> restart_round_;  // 0 = never
};

}  // namespace dynet::faults
