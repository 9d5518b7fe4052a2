#include "protocols/leader_unknown_d.h"

#include <algorithm>
#include <cmath>

#include "util/bitio.h"
#include "util/check.h"

namespace dynet::proto {

namespace {
constexpr int kTagBits = 2;
constexpr int kCoordBits = 10;
constexpr int kValueBits = 16;
constexpr int kPhaseBits = 6;
constexpr std::size_t kMaxPendingUnlocks = 16;

constexpr std::uint64_t kTagA = 0;
constexpr std::uint64_t kTagB = 1;
constexpr std::uint64_t kTagC = 2;
constexpr std::uint64_t kTagD = 3;
}  // namespace

LeaderSchedule::LeaderSchedule(const LeaderConfig& config)
    : k_(config.k > 0 ? config.k : coordCountFor(config.c)),
      gamma_(config.gamma),
      gamma_count_(config.gamma_count),
      log_n_(util::bitWidthFor(
          static_cast<std::uint64_t>(std::max(2.0, config.n_estimate)))) {
  DYNET_CHECK(config.n_estimate >= 1) << "n_estimate=" << config.n_estimate;
  DYNET_CHECK(gamma_ >= 1 && gamma_count_ >= 1)
      << "gamma=" << gamma_ << " gamma_count=" << gamma_count_;
  phase_starts_.push_back(1);
}

sim::Round LeaderSchedule::stageALen(int phase) const {
  const sim::Round dprime = sim::Round{1} << std::min(phase, 24);
  return gamma_ * dprime * log_n_ + 8;
}

sim::Round LeaderSchedule::stageBLen(int phase) const {
  const sim::Round dprime = sim::Round{1} << std::min(phase, 24);
  return static_cast<sim::Round>(k_) * (gamma_count_ * dprime * log_n_) + k_;
}

sim::Round LeaderSchedule::phaseLen(int phase) const {
  return 2 * stageALen(phase) + 2 * stageBLen(phase);
}

sim::Round LeaderSchedule::phaseStart(int phase) const {
  DYNET_CHECK(phase >= 0 && phase < 40) << "phase=" << phase;
  while (static_cast<int>(phase_starts_.size()) <= phase) {
    const int p = static_cast<int>(phase_starts_.size()) - 1;
    phase_starts_.push_back(phase_starts_.back() + phaseLen(p));
  }
  return phase_starts_[static_cast<std::size_t>(phase)];
}

LeaderSchedule::Pos LeaderSchedule::locate(sim::Round round) const {
  if (round < window_.start || round >= window_.end) {
    DYNET_CHECK(round >= 1) << "round=" << round;
    int phase = 0;
    while (phaseStart(phase + 1) <= round) {
      ++phase;
    }
    window_ = {phase, phaseStart(phase), phaseStart(phase + 1),
               stageALen(phase), stageBLen(phase)};
  }
  const sim::Round off = round - window_.start;
  const sim::Round a = window_.a;
  const sim::Round b = window_.b;
  Pos pos{window_.phase, 0, 0, 0};
  if (off < a) {
    pos.stage = 0;
    pos.offset = off;
    pos.stage_len = a;
  } else if (off < a + b) {
    pos.stage = 1;
    pos.offset = off - a;
    pos.stage_len = b;
  } else if (off < 2 * a + b) {
    pos.stage = 2;
    pos.offset = off - a - b;
    pos.stage_len = a;
  } else {
    pos.stage = 3;
    pos.offset = off - 2 * a - b;
    pos.stage_len = b;
  }
  return pos;
}

LeaderElectProcess::LeaderElectProcess(sim::NodeId node, std::uint64_t input_bit,
                                       const LeaderConfig& config, int id_bits,
                                       std::uint64_t private_seed)
    : node_(node),
      my_key_(static_cast<std::uint64_t>(node) + 1),
      input_bit_(input_bit),
      config_(config),
      schedule_(config),
      id_bits_(id_bits),
      private_rng_(private_seed),
      maxid_(static_cast<std::uint64_t>(node) + 1),
      count_mins_(schedule_.k()) {
  DYNET_CHECK(input_bit_ <= 1) << "input bit " << input_bit_;
  DYNET_CHECK(my_key_ < (std::uint64_t{1} << id_bits_))
      << "id " << node << " does not fit " << id_bits_ << " bits";
}

void LeaderElectProcess::applyUnlock(const Unlock& unlock) {
  if (locked_by_ == unlock.locker && locked_phase_ == unlock.phase) {
    locked_by_ = 0;
    locked_phase_ = -1;
  }
}

void LeaderElectProcess::rememberUnlock(const Unlock& unlock) {
  for (const Unlock& u : pending_unlocks_) {
    if (u.locker == unlock.locker && u.phase == unlock.phase) {
      return;
    }
  }
  if (pending_unlocks_.size() >= kMaxPendingUnlocks) {
    // Evict the oldest-phase entry; old unlocks have had the most time to
    // spread already.
    auto oldest = std::min_element(
        pending_unlocks_.begin(), pending_unlocks_.end(),
        [](const Unlock& x, const Unlock& y) { return x.phase < y.phase; });
    *oldest = unlock;
    return;
  }
  pending_unlocks_.push_back(unlock);
}

void LeaderElectProcess::handleLeaderFields(std::uint64_t leader,
                                            std::uint64_t value) {
  if (leader == 0) {
    return;
  }
  // WHP there is a unique declared leader; take the max for determinism if
  // the (low-probability) error event produces two.
  if (leader > leader_) {
    leader_ = leader;
    leader_value_ = value;
  }
}

void LeaderElectProcess::enterStage(const LeaderSchedule::Pos& pos) {
  if (pos.phase == cur_phase_ && pos.stage == cur_stage_) {
    return;
  }
  // --- Exit actions of the stage we are leaving. ---
  if (cur_stage_ == 1) {
    // End of stage B: am I the (whp unique) candidate with a seen-majority?
    is_candidate_ = (maxid_ == my_key_) && (count_value_ == my_key_);
    seen_majority_ =
        is_candidate_ &&
        (config_.skip_precount ||
         count_mins_.estimate() >=
             majorityThreshold(config_.n_estimate, config_.c));
  } else if (cur_stage_ == 3) {
    // End of stage D: the locker learns whether it locked a majority.
    if (initiated_lock_) {
      if (count_mins_.estimate() >=
          majorityThreshold(config_.n_estimate, config_.c)) {
        declared_phase_ = cur_phase_;
        handleLeaderFields(my_key_, input_bit_);
      } else {
        const Unlock unlock{my_key_, cur_phase_};
        rememberUnlock(unlock);
        applyUnlock(unlock);
        ++unlocks_issued_;
      }
    }
    initiated_lock_ = false;
  }
  // --- Entry actions of the new stage. ---
  cur_phase_ = pos.phase;
  cur_stage_ = pos.stage;
  if (pos.stage == 1) {
    // Stage B: count supporters of my current max-id.
    count_value_ = maxid_;
    count_supporter_ = true;
    count_mins_.clear();
    count_mins_.contribute(private_rng_);
    is_candidate_ = false;
    seen_majority_ = false;
  } else if (pos.stage == 2) {
    // Stage C: the seen-majority candidate initiates locking.
    lock_heard_ = 0;
    initiated_lock_ = false;
    if (seen_majority_) {
      initiated_lock_ = true;
      ++lock_attempts_;
      lock_heard_ = my_key_;
      if (locked_by_ == 0) {
        locked_by_ = my_key_;
        locked_phase_ = cur_phase_;
      } else if (locked_by_ == my_key_) {
        locked_phase_ = cur_phase_;  // refresh (re-lock under this phase)
      }
    }
  } else if (pos.stage == 3) {
    // Stage D: count supporters = nodes locked by this phase's locker *in
    // this phase* (refreshed locks count; stale ones do not — this is what
    // keeps a later stale unlock from dissolving a declared majority).
    count_value_ = lock_heard_;
    count_supporter_ = (lock_heard_ != 0 && locked_by_ == lock_heard_ &&
                        locked_phase_ == cur_phase_);
    count_mins_.clear();
    if (count_supporter_) {
      count_mins_.contribute(private_rng_);
    }
  }
}

sim::Action LeaderElectProcess::stageASend(util::CoinStream& coins) {
  sim::Action action;
  if (!coins.coin()) {
    return action;
  }
  Unlock unlock;
  if (!pending_unlocks_.empty()) {
    unlock = pending_unlocks_[unlock_cursor_ % pending_unlocks_.size()];
    ++unlock_cursor_;
  }
  action.send = true;
  action.msg = sim::MessageBuilder()
                   .put(kTagA, kTagBits)
                   .put(maxid_, id_bits_)
                   .put(leader_, id_bits_)
                   .put(leader_value_, 1)
                   .put(unlock.locker, id_bits_)
                   .put(static_cast<std::uint64_t>(unlock.phase), kPhaseBits)
                   .build();
  return action;
}

sim::Action LeaderElectProcess::stageBDSend(int tag, const MinVector& mins,
                                            std::uint64_t cand,
                                            const LeaderSchedule::Pos& pos,
                                            util::CoinStream& coins) {
  sim::Action action;
  if (!coins.coin()) {
    return action;
  }
  const int coord = static_cast<int>(pos.offset % schedule_.k());
  const double value = mins.coordinate(coord);
  action.send = true;
  action.msg = sim::MessageBuilder()
                   .put(static_cast<std::uint64_t>(tag), kTagBits)
                   .put(cand, id_bits_)
                   .put(static_cast<std::uint64_t>(coord), kCoordBits)
                   .put(std::isinf(value) ? 0 : util::encodeReal16(value),
                        kValueBits)
                   .put(leader_, id_bits_)
                   .put(leader_value_, 1)
                   .build();
  return action;
}

sim::Action LeaderElectProcess::stageCSend(util::CoinStream& coins) {
  sim::Action action;
  if (lock_heard_ == 0 || !coins.coin()) {
    return action;
  }
  DYNET_CHECK(cur_phase_ < (1 << kPhaseBits)) << "phase overflow";
  action.send = true;
  action.msg = sim::MessageBuilder()
                   .put(kTagC, kTagBits)
                   .put(lock_heard_, id_bits_)
                   .put(static_cast<std::uint64_t>(cur_phase_), kPhaseBits)
                   .put(leader_, id_bits_)
                   .put(leader_value_, 1)
                   .build();
  return action;
}

sim::Action LeaderElectProcess::onRound(sim::Round round,
                                        util::CoinStream& coins) {
  const LeaderSchedule::Pos pos = schedule_.locate(round);
  enterStage(pos);
  switch (pos.stage) {
    case 0:
      return stageASend(coins);
    case 1:
      return stageBDSend(static_cast<int>(kTagB), count_mins_, count_value_,
                         pos, coins);
    case 2:
      return stageCSend(coins);
    default:
      return stageBDSend(static_cast<int>(kTagD), count_mins_, count_value_,
                         pos, coins);
  }
}

void LeaderElectProcess::onDeliver(sim::Round /*round*/, bool /*sent*/,
                                   std::span<const sim::Message> received) {
  for (const sim::Message& msg : received) {
    sim::MessageReader reader(msg);
    const std::uint64_t tag = reader.get(kTagBits);
    if (tag == kTagA) {
      const std::uint64_t maxid = reader.get(id_bits_);
      const std::uint64_t leader = reader.get(id_bits_);
      const std::uint64_t lv = reader.get(1);
      const std::uint64_t unlock_id = reader.get(id_bits_);
      const int unlock_phase = static_cast<int>(reader.get(kPhaseBits));
      maxid_ = std::max(maxid_, maxid);
      handleLeaderFields(leader, lv);
      if (unlock_id != 0) {
        const Unlock unlock{unlock_id, unlock_phase};
        applyUnlock(unlock);
        rememberUnlock(unlock);
      }
    } else if (tag == kTagB || tag == kTagD) {
      const std::uint64_t value = reader.get(id_bits_);
      const int coord = static_cast<int>(reader.get(kCoordBits));
      const double min_value =
          util::decodeReal16(static_cast<std::uint16_t>(reader.get(kValueBits)));
      const std::uint64_t leader = reader.get(id_bits_);
      const std::uint64_t lv = reader.get(1);
      handleLeaderFields(leader, lv);
      if (tag == kTagB) {
        maxid_ = std::max(maxid_, value);
      }
      if (value > count_value_) {
        // A larger candidate exists: become a pure relay for it.
        count_value_ = value;
        count_supporter_ = false;
        count_mins_.clear();
      }
      if (value == count_value_ && min_value > 0.0 &&
          coord < count_mins_.k()) {
        count_mins_.merge(coord, min_value);
      }
    } else if (tag == kTagC) {
      const std::uint64_t locker = reader.get(id_bits_);
      const int phase = static_cast<int>(reader.get(kPhaseBits));
      const std::uint64_t leader = reader.get(id_bits_);
      const std::uint64_t lv = reader.get(1);
      handleLeaderFields(leader, lv);
      if (locker != 0 && lock_heard_ == 0) {
        lock_heard_ = locker;
        if (locked_by_ == 0) {
          locked_by_ = locker;
          locked_phase_ = phase;
        } else if (locked_by_ == locker) {
          locked_phase_ = phase;  // refresh
        }
      }
    }
  }
}

std::uint64_t LeaderElectProcess::stateDigest() const {
  std::uint64_t h = util::hashCombine(maxid_, leader_);
  h = util::hashCombine(h, locked_by_);
  h = util::hashCombine(h, static_cast<std::uint64_t>(locked_phase_ + 1));
  return h;
}

void LeaderElectProcess::exportMetrics(
    std::vector<std::pair<std::string, double>>& out) const {
  out.emplace_back("leader/lock_attempts", static_cast<double>(lock_attempts_));
  out.emplace_back("leader/unlocks_issued",
                   static_cast<double>(unlocks_issued_));
  out.emplace_back("leader/declared_phase",
                   static_cast<double>(declared_phase_));
  out.emplace_back("leader/elected", leader_ != 0 ? 1.0 : 0.0);
}

LeaderElectFactory::LeaderElectFactory(const LeaderConfig& config,
                                       std::uint64_t master_seed,
                                       std::vector<std::uint64_t> inputs)
    : config_(config), master_seed_(master_seed), inputs_(std::move(inputs)) {}

std::unique_ptr<sim::Process> LeaderElectFactory::create(
    sim::NodeId node, sim::NodeId num_nodes) const {
  DYNET_CHECK(!config_.carry_value ||
              static_cast<std::size_t>(num_nodes) == inputs_.size())
      << "carry_value needs one input per node";
  // Width from N' only (the protocol does not know N); the (4/3)·N bound on
  // N' guarantees ids fit.
  const int id_bits = util::bitWidthFor(
      static_cast<std::uint64_t>(4.0 * std::max(2.0, config_.n_estimate)) + 4);
  const std::uint64_t input =
      config_.carry_value ? inputs_[static_cast<std::size_t>(node)] : 0;
  return std::make_unique<LeaderElectProcess>(
      node, input, config_, id_bits,
      util::privateSeed(master_seed_, static_cast<std::uint64_t>(node)));
}

}  // namespace dynet::proto
