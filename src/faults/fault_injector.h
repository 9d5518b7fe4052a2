// The hook the engine's round phases consult: sim::faultPhase applies
// scheduled restarts/crashes and builds the live mask at the top of each
// round, and sim::deliveryPhase filters every delivery through
// deliveryFate()/corrupted() (see src/sim/phase.h).
//
// A FaultInjector binds a FaultPlan to the machinery needed to apply it:
// the ProcessFactory that re-creates a node's state machine when it
// restarts, and the message-mangling rule for corrupted deliveries.  The
// injector itself is stateless and const — all per-run bookkeeping (crash
// transitions, fault counters) lives in the engine's RunResult and
// EngineWorkspace, so one injector can safely serve many engines across
// Monte Carlo trial threads.
#pragma once

#include <memory>

#include "faults/fault_plan.h"
#include "sim/message.h"
#include "sim/process.h"

namespace dynet::faults {

class FaultInjector {
 public:
  /// `factory` re-creates processes on restart; it may be null when the
  /// plan schedules no restarts, and must outlive the injector otherwise.
  explicit FaultInjector(FaultPlan plan,
                         const sim::ProcessFactory* factory = nullptr);

  const FaultPlan& plan() const { return plan_; }

  bool isCrashed(sim::NodeId v, sim::Round r) const {
    return plan_.isCrashed(v, r);
  }
  bool restartsAt(sim::NodeId v, sim::Round r) const {
    return plan_.restartsAt(v, r);
  }

  /// Fresh state machine for a restarting node (state reset, not resume).
  std::unique_ptr<sim::Process> freshProcess(sim::NodeId v,
                                             sim::NodeId num_nodes) const;

  FaultPlan::Fate deliveryFate(sim::NodeId sender, sim::NodeId receiver,
                               sim::Round round) const {
    return plan_.deliveryFate(sender, receiver, round);
  }

  /// The mangled payload a corrupted delivery arrives as (one flipped bit).
  sim::Message corrupted(const sim::Message& msg, sim::NodeId sender,
                         sim::NodeId receiver, sim::Round round) const;

 private:
  FaultPlan plan_;
  const sim::ProcessFactory* factory_;
};

}  // namespace dynet::faults
