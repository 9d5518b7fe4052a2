// The paper's §7 LEADERELECT protocol: unknown diameter, O(log N)-flavor
// flooding-round complexity, given an estimate N' with |N'-N|/N <= 1/3 - c.
//
// The protocol proceeds in phases p = 0, 1, 2, … with diameter guess
// D' = 2^p.  Each phase has four stages whose lengths are publicly
// computable (all nodes agree on the schedule from the round number):
//
//   Stage A — max-id flood for Θ(D'·log N') rounds (random send/receive).
//             Piggybacks leader announcements and unlock notices from
//             failed lock attempts of earlier phases ("flood an unlock
//             message in future phases to roll back").
//   Stage B — majority counting #1: how many nodes' current max-id equals
//             candidate V's id?  (the separate stage that ensures, whp, at
//             most one node proceeds to acquire locks in this phase).
//   Stage C — the stage-B winner floods lock(V, p); a node that is not yet
//             locked becomes locked by the first lock it hears.
//   Stage D — majority counting #2: how many nodes are locked by V?
//             Majority ⇒ V declares itself leader (announced via future
//             stage A's); otherwise V schedules unlock(V, p).
//
// Majority counting uses the exponential-minima estimator (majority.h) with
// per-phase fresh private exponentials, a public round-robin coordinate
// schedule, and the conservative threshold τ(N', c).  Estimates only ever
// under-count (minima shrink toward truth), matching the paper's one-sided
// error requirement: a claimed majority is real whp, so two candidates can
// never both lock a majority, and a declared leader is unique.
//
// Once D' ≥ D: stage A floods every pending unlock and the true max id to
// all nodes, the max-id node M wins both counts, locks everyone, and
// declares; everyone outputs M in the next stage A.  Total rounds are
// O(k · D · log N'), i.e. O(k · log N') flooding rounds — independent of
// the Ω((N/log N)^{1/4}) lower bound that holds without the N' estimate.
#pragma once

#include <memory>
#include <vector>

#include "protocols/majority.h"
#include "sim/process.h"

namespace dynet::proto {

struct LeaderConfig {
  /// The estimate N' (must satisfy |N'-N|/N <= 1/3 - c for guarantees).
  double n_estimate = 0;
  /// The constant c in the estimate promise.
  double c = 0.25;
  /// Coordinates for majority counting; 0 derives coordCountFor(c).
  int k = 0;
  /// Flood-length multiplier: stage A length = gamma * D' * ceil(log2 N') + 8.
  int gamma = 3;
  /// Counting-length multiplier: stage B/D length = k * (gamma_count * D' *
  /// ceil(log2 N')) + k.
  int gamma_count = 1;
  /// If true, the leader's input bit rides along with announcements and
  /// output() returns it (CONSENSUS via LEADERELECT).
  bool carry_value = false;
  /// ABLATION: skip the stage-B "seen-majority" pre-count, letting every
  /// local-maximum candidate try to lock.  The paper adds the pre-count
  /// precisely to avoid the resulting unlock traffic ("Avoid excessive lock
  /// roll back", §7); bench_ablation_leader quantifies it.
  bool skip_precount = false;
};

/// Publicly computable phase/stage schedule.  locate() keeps the phase it
/// last answered in, so a process asking once per round finds its position
/// in O(1); a round outside that phase, in any order, walks the phases.
/// Not for concurrent use: every process owns its own schedule.
class LeaderSchedule {
 public:
  LeaderSchedule(const LeaderConfig& config);

  struct Pos {
    int phase;       // 0-based
    int stage;       // 0=A, 1=B, 2=C, 3=D
    sim::Round offset;     // 0-based offset within the stage
    sim::Round stage_len;  // length of this stage
  };

  Pos locate(sim::Round round) const;  // round is 1-based
  sim::Round stageALen(int phase) const;
  sim::Round stageBLen(int phase) const;
  sim::Round phaseLen(int phase) const;
  /// First round (1-based) of the given phase.
  sim::Round phaseStart(int phase) const;
  int k() const { return k_; }

 private:
  /// The phase locate() last answered in: rounds [start, end), with its
  /// stage A and B lengths.  Empty until the first call.
  struct Window {
    int phase = 0;
    sim::Round start = 0;
    sim::Round end = 0;
    sim::Round a = 0;
    sim::Round b = 0;
  };

  int k_;
  int gamma_;
  int gamma_count_;
  int log_n_;
  mutable std::vector<sim::Round> phase_starts_;  // cumulative, grown on demand
  mutable Window window_;
};

class LeaderElectProcess : public sim::Process {
 public:
  LeaderElectProcess(sim::NodeId node, std::uint64_t input_bit,
                     const LeaderConfig& config, int id_bits,
                     std::uint64_t private_seed);

  sim::Action onRound(sim::Round round, util::CoinStream& coins) override;
  void onDeliver(sim::Round round, bool sent,
                 std::span<const sim::Message> received) override;
  bool done() const override { return leader_ != 0; }
  /// Leader id key (id+1), or the leader's input bit when carry_value.
  std::uint64_t output() const override {
    return config_.carry_value ? leader_value_ : leader_;
  }
  std::uint64_t stateDigest() const override;
  /// Exports leader/lock_attempts, leader/unlocks_issued,
  /// leader/declared_phase, leader/elected.
  void exportMetrics(
      std::vector<std::pair<std::string, double>>& out) const override;

  std::uint64_t leaderKey() const { return leader_; }
  int declaredInPhase() const { return declared_phase_; }

  // Instrumentation for ablation benches.
  int lockAttempts() const { return lock_attempts_; }
  int unlocksIssued() const { return unlocks_issued_; }

 private:
  struct Unlock {
    std::uint64_t locker = 0;
    int phase = 0;
  };

  void enterStage(const LeaderSchedule::Pos& pos);
  sim::Action stageASend(util::CoinStream& coins);
  sim::Action stageBDSend(int tag, const MinVector& mins, std::uint64_t cand,
                          const LeaderSchedule::Pos& pos,
                          util::CoinStream& coins);
  sim::Action stageCSend(util::CoinStream& coins);
  void handleLeaderFields(std::uint64_t leader, std::uint64_t value);
  void applyUnlock(const Unlock& unlock);
  void rememberUnlock(const Unlock& unlock);

  sim::NodeId node_;
  std::uint64_t my_key_;  // id + 1 (0 is the "none" sentinel)
  std::uint64_t input_bit_;
  LeaderConfig config_;
  LeaderSchedule schedule_;
  int id_bits_;
  util::Rng private_rng_;

  // Persistent state.
  std::uint64_t maxid_;
  std::uint64_t leader_ = 0;
  std::uint64_t leader_value_ = 0;
  std::uint64_t locked_by_ = 0;
  int locked_phase_ = -1;
  std::vector<Unlock> pending_unlocks_;
  std::size_t unlock_cursor_ = 0;
  int declared_phase_ = -1;

  // Current stage bookkeeping.
  int cur_phase_ = -1;
  int cur_stage_ = -1;
  // Stage B/D counting state.
  std::uint64_t count_value_ = 0;   // value whose supporters are counted
  bool count_supporter_ = false;
  MinVector count_mins_;
  // Stage B outcome.
  bool is_candidate_ = false;
  bool seen_majority_ = false;
  // Stage C state.
  std::uint64_t lock_heard_ = 0;  // locker key heard this phase
  bool initiated_lock_ = false;
  // Instrumentation.
  int lock_attempts_ = 0;
  int unlocks_issued_ = 0;
};

class LeaderElectFactory : public sim::ProcessFactory {
 public:
  /// inputs may be empty when !config.carry_value.
  LeaderElectFactory(const LeaderConfig& config, std::uint64_t master_seed,
                     std::vector<std::uint64_t> inputs = {});

  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;

 private:
  LeaderConfig config_;
  std::uint64_t master_seed_;
  std::vector<std::uint64_t> inputs_;
};

}  // namespace dynet::proto
