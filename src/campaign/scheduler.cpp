#include "campaign/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/shard_exec.h"
#include "campaign/telemetry.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/check.h"
#include "util/subprocess.h"

namespace dynet::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double elapsedUs(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

/// Current value of a counter if it exists (never registers it).
std::uint64_t counterValue(const obs::MetricsRegistry& registry,
                           const std::string& name) {
  const auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0 : it->second.value;
}

bool isEventLine(const std::string& line) {
  return line.rfind("{\"dynet_event\"", 0) == 0;
}

/// One attempt's outcome, feeding the retry/quarantine ladder.
struct Attempt {
  std::optional<ShardResult> result;  // set when the attempt succeeded
  std::string error;  // human-readable strike reason otherwise
};

/// In-process sabotage: the hooks break the WORKER in subprocess mode; with
/// no process boundary the closest faithful mapping is a thrown attempt
/// failure ("hang" cannot be killed inside our own process).
void applySabotageInProcess(const ShardConfig& shard) {
  const std::string& mode = shard.fault.sabotage;
  if (mode.empty()) {
    return;
  }
  if (mode == "crash_once") {
    namespace fs = std::filesystem;
    DYNET_CHECK(!shard.fault.sabotage_marker.empty())
        << "crash_once sabotage needs a sabotage_marker path";
    if (fs::exists(shard.fault.sabotage_marker)) {
      return;  // already struck once; behave from now on
    }
    std::ofstream(shard.fault.sabotage_marker) << "struck\n";
    DYNET_CHECK(false) << "sabotage: crash_once (first strike)";
  }
  DYNET_CHECK(false) << "sabotage: " << mode;
}

Attempt attemptInProcess(const ShardConfig& shard) {
  Attempt a;
  try {
    applySabotageInProcess(shard);
    a.result = runShard(shard);
  } catch (const std::exception& e) {
    // A CheckError, or a std::bad_alloc from a shard larger than memory:
    // either costs the attempt, never the campaign.
    a.error = e.what();
  }
  return a;
}

/// One persistent worker per supervisor thread, respawned on demand.  Event
/// lines on its stdout are re-emitted into the campaign stream, its stderr
/// is drained and re-printed whole-line through the single writer, and
/// worker lifecycle (spawn/exit) is recorded.
class WorkerSlot {
 public:
  WorkerSlot(std::string cmd, int slot, CampaignTelemetry& telemetry)
      : cmd_(std::move(cmd)), slot_(slot), telemetry_(telemetry) {}

  Attempt run(const ShardConfig& shard, int timeout_ms, int attempt,
              obs::MetricsRegistry& prof) {
    Attempt a;
    if (!worker_) {
      const Clock::time_point spawn_start = Clock::now();
      worker_.emplace(util::Subprocess::spawn({cmd_, "--worker"}));
      const double spawn_us = elapsedUs(spawn_start);
      obs::recordProfSample(prof, "campaign//worker_spawn", spawn_us);
      telemetry_.workerSpawned(slot_, worker_->pid(), spawn_us / 1000.0);
    }
    const pid_t pid = worker_->pid();
    if (!worker_->writeLine(shard.canonicalJson())) {
      // Stdin pipe broken: the worker died between shards.  Report why and
      // let the retry ladder respawn on the next call.
      const int status = worker_->wait();
      forwardStderr();
      a.error = "worker died before accepting shard (exit status " +
                std::to_string(status) + ")";
      noteExit(pid, status, "died between shards");
      return a;
    }
    // Event lines may precede the result line, so the deadline spans the
    // whole exchange: each read gets whatever budget remains.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    std::string line;
    for (;;) {
      int remaining_ms = timeout_ms;
      if (timeout_ms >= 0) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        remaining_ms = static_cast<int>(std::max<long long>(0, left.count()));
      }
      switch (worker_->readLine(&line, remaining_ms)) {
        case util::Subprocess::ReadStatus::kLine:
          forwardStderr();
          if (isEventLine(line)) {
            telemetry_.workerEvent(slot_, attempt, line);
            continue;
          }
          try {
            a.result = ShardResult::parseJson(line);
          } catch (const util::CheckError& e) {
            a.error = "malformed result line: " + e.message();
          }
          return a;
        case util::Subprocess::ReadStatus::kTimeout: {
          worker_->kill();
          const int status = worker_->wait();
          forwardStderr();
          a.error = "timeout after " + std::to_string(timeout_ms) +
                    "ms (worker killed)";
          noteExit(pid, status, "timeout");
          return a;
        }
        case util::Subprocess::ReadStatus::kEof: {
          const int status = worker_->wait();
          forwardStderr();
          std::ostringstream msg;
          if (status < 0) {
            msg << "worker killed by signal " << -status;
          } else {
            msg << "worker exited with status " << status;
          }
          msg << " before producing a result";
          a.error = msg.str();
          noteExit(pid, status, "exited before result");
          return a;
        }
      }
    }
  }

 private:
  void forwardStderr() {
    std::vector<std::string> lines;
    worker_->drainStderrLines(&lines);
    for (const std::string& l : lines) {
      telemetry_.workerStderr(slot_, l);
    }
  }

  /// Records the exit of the reaped worker and drops it, so the next
  /// attempt spawns a fresh one.
  void noteExit(pid_t pid, int status, const std::string& reason) {
    telemetry_.workerExited(slot_, pid, status, reason);
    worker_.reset();
  }

  std::string cmd_;
  int slot_ = 0;
  CampaignTelemetry& telemetry_;
  std::optional<util::Subprocess> worker_;
};

/// Why `result` cannot answer for `shard`, or "" when it can.  A mismatched
/// hash means the worker went off the rails: a failed attempt, not a
/// committed lie.
std::string mismatch(const ShardConfig& shard, const ShardResult& result) {
  if (result.hash != shard.hash()) {
    return "result hash " + result.hash + " does not match shard " +
           shard.hash();
  }
  if (result.trials != shard.trials) {
    return "result carries " + std::to_string(result.trials) +
           " trials, shard wants " + std::to_string(shard.trials);
  }
  return "";
}

struct SharedState {
  const std::vector<ShardConfig>* shards = nullptr;
  std::vector<std::size_t> pending;  // indices into *shards, claim order
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> committed_new{0};
  std::atomic<std::size_t> quarantined{0};
  std::atomic<std::size_t> failed_attempts{0};
  std::atomic<bool> stop{false};
  Clock::time_point run_start;
};

void supervise(SharedState& state, const CampaignSpec& spec,
               const CampaignOptions& options, CampaignTelemetry& telemetry,
               int slot_id, obs::MetricsRegistry& prof) {
  // In-process shard execution inherits this scope, so engine-level
  // DYNET_PROF timers land beside the campaign//<stage> samples.
  obs::ProfScope prof_scope(&prof);
  std::optional<WorkerSlot> slot;
  if (options.subprocess) {
    slot.emplace(options.worker_cmd, slot_id, telemetry);
  }
  for (;;) {
    if (state.stop.load(std::memory_order_relaxed)) {
      return;
    }
    const std::size_t i =
        state.cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= state.pending.size()) {
      return;
    }
    const ShardConfig& shard = (*state.shards)[state.pending[i]];
    const std::string hash = shard.hash();
    const double queue_wait_us = elapsedUs(state.run_start);
    obs::recordProfSample(prof, "campaign//queue_wait", queue_wait_us);
    telemetry.shardClaimed(hash, state.pending[i], queue_wait_us / 1000.0);
    const RetryPolicy& retry = spec.retry;
    std::string last_error;
    bool committed = false;
    for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
      if (attempt > 1) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(retry.backoffDelayMs(attempt - 1)));
      }
      telemetry.attemptStarted(hash, attempt);
      if (!slot) {
        telemetry.execStarted(hash, attempt, "inprocess", slot_id);
      }
      const std::uint64_t engine_us_before =
          counterValue(prof, "prof/engine/run/total_us");
      const Clock::time_point exec_start = Clock::now();
      Attempt a = slot ? slot->run(shard, retry.timeout_ms, attempt, prof)
                       : attemptInProcess(shard);
      const double exec_us = elapsedUs(exec_start);
      obs::recordProfSample(prof, "campaign//execute", exec_us);
      if (!slot) {
        const auto engine_us = static_cast<double>(
            counterValue(prof, "prof/engine/run/total_us") - engine_us_before);
        telemetry.execFinished(hash, attempt, "inprocess", slot_id,
                               exec_us / 1000.0, engine_us, shard.trials);
      }
      if (a.result) {
        a.error = mismatch(shard, *a.result);
      }
      if (a.result && a.error.empty()) {
        // Durable before the shard is counted, printed or merged.
        const Clock::time_point commit_start = Clock::now();
        telemetry.shardCommitted(hash, attempt, *a.result);
        obs::recordProfSample(prof, "campaign//commit",
                              elapsedUs(commit_start));
        state.committed_new.fetch_add(1, std::memory_order_relaxed);
        committed = true;
        if (options.verbose) {
          std::ostringstream line;
          line << "[campaign] " << hash << " ok (" << shard.protocol << "/"
               << shard.adversary << " n=" << shard.n << ", attempt "
               << attempt << ")";
          humanLine(line.str());
        }
        break;
      }
      state.failed_attempts.fetch_add(1, std::memory_order_relaxed);
      last_error = a.error;
      telemetry.attemptFailed(hash, attempt, retry.max_attempts, a.error,
                              retry.backoffDelayMs(attempt));
      std::ostringstream line;
      line << "[campaign] " << hash << " attempt " << attempt << "/"
           << retry.max_attempts << " failed: " << a.error;
      humanLine(line.str());
    }
    if (!committed) {
      telemetry.shardQuarantined(hash, retry.max_attempts, last_error);
      state.quarantined.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream line;
      line << "[campaign] " << hash << " QUARANTINED after "
           << retry.max_attempts << " attempts: " << last_error;
      humanLine(line.str());
    }
    if (options.shard_limit > 0 &&
        state.committed_new.load(std::memory_order_relaxed) >=
            static_cast<std::size_t>(options.shard_limit)) {
      state.stop.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

}  // namespace

CampaignOutcome runCampaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  DYNET_CHECK(options.workers >= 1) << "campaign needs at least one worker";
  DYNET_CHECK(!options.subprocess || !options.worker_cmd.empty())
      << "subprocess mode needs a worker command";
  CheckpointStore store(options.checkpoint_dir);

  const std::vector<ShardConfig> shards = spec.expandShards();

  // Guard the directory against a different spec: shard hashes are content
  // addresses, so resuming a foreign checkpoint would silently merge
  // results from another experiment.  The canonical shard-hash list is the
  // identity we compare.
  std::ostringstream spec_id;
  spec_id << "{\"dynet_campaign\":1,\"name\":\"" << spec.name
          << "\",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    spec_id << (i ? "," : "") << "\"" << shards[i].hash() << "\"";
  }
  spec_id << "]}\n";
  if (const std::optional<std::string> prior = store.readFile("spec.json")) {
    DYNET_CHECK(*prior == spec_id.str())
        << "checkpoint dir " << store.dir()
        << " belongs to a different campaign spec; refusing to mix results "
        << "(use a fresh directory)";
  } else {
    store.writeFile("spec.json", spec_id.str());
  }

  // Each shard's outcome so far is its last durable record; the fold skips
  // a torn tail, which opening the writer below then truncates.
  const std::map<std::string, ShardRecord> records = store.fold().shards;
  // The campaign id is the hash of the same identity string the spec guard
  // compares, so every resume of one checkpoint dir correlates under one id.
  CampaignTelemetry telemetry(store, spec.name,
                              hashHex(fnv1a64(spec_id.str())), shards.size(),
                              options.workers, options.subprocess);

  CampaignOutcome outcome;
  outcome.shards_total = shards.size();
  SharedState state;
  state.shards = &shards;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string hash = shards[i].hash();
    const auto it = records.find(hash);
    const ShardRecord::State last =
        it == records.end() ? ShardRecord::State::kRequeued : it->second.state;
    if (last == ShardRecord::State::kCommitted) {
      ++outcome.completed_prior;
      continue;
    }
    if (last == ShardRecord::State::kQuarantined) {
      if (!options.retry_quarantined) {
        ++outcome.quarantined;
        continue;
      }
      telemetry.shardRequeued(hash);
    }
    state.pending.push_back(i);
  }
  telemetry.campaignStarted(outcome.completed_prior, outcome.quarantined,
                            state.pending.size());
  state.run_start = Clock::now();

  std::vector<obs::MetricsRegistry> prof_regs(options.workers);
  if (!state.pending.empty()) {
    const unsigned worker_count = std::min<unsigned>(
        options.workers, static_cast<unsigned>(state.pending.size()));
    std::vector<std::exception_ptr> failures(worker_count);
    std::vector<std::thread> threads;
    threads.reserve(worker_count);
    for (unsigned w = 0; w < worker_count; ++w) {
      threads.emplace_back([&, w] {
        try {
          supervise(state, spec, options, telemetry, static_cast<int>(w),
                    prof_regs[w]);
        } catch (...) {
          // A stream write or sync, or a worker spawn, failed: stop the
          // other supervisors and rethrow once they have joined.
          failures[w] = std::current_exception();
          state.stop.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (const std::exception_ptr& failure : failures) {
      if (failure) {
        std::rethrow_exception(failure);
      }
    }
  }

  outcome.completed_new = state.committed_new.load();
  outcome.quarantined += state.quarantined.load();
  outcome.failed_attempts = state.failed_attempts.load();
  outcome.stopped_early =
      state.stop.load() && outcome.completed() < outcome.shards_total;

  std::ostringstream report;
  const ReportInfo report_info = writeReport(spec, store, report);
  store.writeFile("report.json", report.str());

  obs::MetricsRegistry merged;
  for (const obs::MetricsRegistry& r : prof_regs) {
    merged.mergeFrom(r);
  }
  obs::recordProfSample(merged, "campaign//run", elapsedUs(state.run_start));
  telemetry.writeSchedulerProfile(merged);
  telemetry.campaignFinished(outcome.completed(), outcome.quarantined,
                             outcome.failed_attempts, report_info.trials,
                             outcome.stopped_early);
  return outcome;
}

ReportInfo writeReport(const CampaignSpec& spec, const CheckpointStore& store,
                       std::ostream& out) {
  ReportInfo info;
  obs::MetricsRegistry registry;
  const std::map<std::string, ShardRecord> records = store.fold().shards;
  // Merge in expansion order: the report's bytes depend only on which
  // shards have committed results, never on execution order or worker
  // count — the kill-and-resume byte-identity guarantee lives here.
  const std::vector<ShardConfig> shards = spec.expandShards();
  info.shards_total = shards.size();
  for (const ShardConfig& shard : shards) {
    const auto it = records.find(shard.hash());
    if (it == records.end()) {
      continue;
    }
    if (it->second.state == ShardRecord::State::kQuarantined) {
      ++info.shards_quarantined;
    }
    if (it->second.state != ShardRecord::State::kCommitted) {
      continue;
    }
    const ShardResult& result = it->second.result;
    ++info.shards_covered;
    info.trials += static_cast<std::size_t>(result.trials);
    for (const auto& [name, samples] : result.metrics) {
      obs::Series* series = registry.series("trial/" + name);
      for (const double v : samples) {
        series->append(v);
      }
    }
  }
  registry.counter("campaign/shards_total")->inc(info.shards_total);
  registry.counter("campaign/shards_completed")->inc(info.shards_covered);
  registry.counter("campaign/shards_quarantined")
      ->inc(info.shards_quarantined);
  registry.counter("campaign/trials")->inc(info.trials);
  registry.gauge("campaign/coverage")
      ->set(info.shards_total == 0
                ? 1.0
                : static_cast<double>(info.shards_covered) /
                      static_cast<double>(info.shards_total));
  registry.writeJson(out);
  return info;
}

}  // namespace dynet::campaign
