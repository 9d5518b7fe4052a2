#include "campaign/telemetry.h"

#include <iostream>
#include <limits>
#include <mutex>
#include <utility>

#include "campaign/spec.h"
#include "campaign/store.h"
#include "obs/json.h"
#include "util/check.h"

namespace dynet::campaign {

void humanLine(const std::string& line) {
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  // One buffered string, one insertion: the whole line (newline included)
  // reaches stderr as a unit, so lines never interleave mid-character.
  std::cerr << line + '\n' << std::flush;
}

namespace {

/// A count of an event record, read through integerField: events.jsonl is
/// a file on disk, and casting a hostile 1e300 would be undefined.
std::size_t count(const obs::Json& record, const std::string& key) {
  return static_cast<std::size_t>(
      integerField(record.at(key), key, 0, std::int64_t{1} << 53));
}

int attemptOf(const obs::Json& record, const std::string& key) {
  return static_cast<int>(
      integerField(record.at(key), key, 0, std::numeric_limits<int>::max()));
}

/// Applies one record after campaign_started to `s`: the transitions the
/// scheduler's events mean.  Execution and worker records change nothing.
void apply(CampaignStatus& s, const std::string& type, const obs::Json& e) {
  s.updated_ms = static_cast<std::int64_t>(count(e, "ts_ms"));
  if (type == "campaign_finished") {
    // The outcome's terminal numbers are the ones the report reflects.
    s.state = e.at("stopped_early").boolean() ? "stopped_early" : "finished";
    s.done = count(e, "completed");
    s.quarantined = count(e, "quarantined");
    s.failed_attempts = count(e, "failed_attempts");
    s.trials_done = count(e, "trials");
    s.pending = s.shards_total >= s.done + s.quarantined
                    ? s.shards_total - s.done - s.quarantined
                    : 0;
  } else if (type == "shard_claimed") {
    s.pending -= s.pending > 0 ? 1 : 0;
    s.attention[e.at("shard").str()] = {"running", 1, ""};
  } else if (type == "shard_quarantined") {
    ++s.quarantined;
    s.attention[e.at("shard").str()] = {
        "quarantined", attemptOf(e, "attempts"), e.at("error").str()};
  } else if (type == "attempt_started" || type == "attempt_failed" ||
             type == "shard_committed") {
    if (type == "attempt_failed") {
      ++s.failed_attempts;
    } else if (type == "shard_committed") {
      ++s.done;
      s.trials_done += count(e, "trials");
    }
    const auto it = s.attention.find(e.at("shard").str());
    if (it == s.attention.end()) {
      return;
    }
    CampaignStatus::Shard& shard = it->second;
    shard.attempts = attemptOf(e, "attempt");
    if (type == "attempt_started") {
      shard.state = "running";
    } else if (type == "attempt_failed") {
      shard.last_error = e.at("error").str();
      if (shard.attempts < attemptOf(e, "max_attempts")) {
        shard.state = "retrying";
      }
    } else if (shard.attempts > 1) {
      shard.state = "done";  // a flaky shard keeps its history visible
    } else {
      s.attention.erase(it);
    }
  }
}

/// Applies one durable record: the last one for a hash is its outcome.
void recordOutcome(std::map<std::string, ShardRecord>& shards,
                   const std::string& type, const obs::Json& e) {
  const std::string& hash = e.at("shard").str();
  ShardRecord outcome;
  if (type == "shard_committed") {
    outcome.state = ShardRecord::State::kCommitted;
    outcome.result = ShardResult::fromJson(e.at("result"));
    DYNET_CHECK(outcome.result.hash == hash)
        << "result hash " << outcome.result.hash << " does not match shard "
        << hash;
  } else if (type == "shard_quarantined") {
    outcome.state = ShardRecord::State::kQuarantined;
    outcome.attempts = attemptOf(e, "attempts");
    outcome.error = e.at("error").str();
  }
  shards[hash] = std::move(outcome);
}

}  // namespace

EventFold foldEvents(std::istream& in) {
  EventFold fold;
  std::optional<CampaignStatus>& status = fold.status;
  std::string line;
  // A last line without its newline is a torn tail, as EventWriter treats
  // it: getline then stops at the end of the stream.
  for (std::size_t line_no = 1; std::getline(in, line) && !in.eof();
       ++line_no) {
    try {
      const obs::Json e = obs::Json::parse(line);
      const std::string& type = e.at("type").str();
      if (type == "shard_committed" || type == "shard_quarantined" ||
          type == "shard_requeued") {
        recordOutcome(fold.shards, type, e);
      }
      if (type == "campaign_started") {
        // Each run starts over; its record credits the prior runs.
        const auto started_ms = static_cast<std::int64_t>(count(e, "ts_ms"));
        status = CampaignStatus{
            .campaign = e.at("campaign").str(),
            .name = e.at("name").str(),
            .state = "running",
            .started_ms = started_ms,
            .updated_ms = started_ms,
            .shards_total = count(e, "shards_total"),
            .done = count(e, "completed_prior"),
            .completed_prior = count(e, "completed_prior"),
            .pending = count(e, "pending"),
            .quarantined = count(e, "quarantined_prior"),
            .attention = {}};
      } else if (status) {
        apply(*status, type, e);
      }
    } catch (const util::CheckError& err) {
      DYNET_CHECK(false) << "event line " << line_no << ": " << err.message();
    }
  }
  if (status) {
    for (const auto& [hash, shard] : status->attention) {
      status->running += shard.state == "running" ? 1 : 0;
      status->retrying += shard.state == "retrying" ? 1 : 0;
    }
  }
  return fold;
}

CampaignTelemetry::CampaignTelemetry(CheckpointStore& store,
                                     std::string campaign_name,
                                     std::string campaign_id,
                                     std::size_t shards_total,
                                     unsigned workers, bool subprocess)
    : store_(store),
      name_(std::move(campaign_name)),
      campaign_id_(std::move(campaign_id)),
      shards_total_(shards_total),
      workers_(workers),
      subprocess_(subprocess),
      events_(store.dir() + "/events.jsonl") {}

obs::Event CampaignTelemetry::event(const std::string& type) const {
  obs::Event e(type);
  e.str("campaign", campaign_id_);
  return e;
}

void CampaignTelemetry::campaignStarted(std::size_t completed_prior,
                                        std::size_t quarantined_prior,
                                        std::size_t pending) {
  events_.emit(event("campaign_started")
                   .str("name", name_)
                   .num("shards_total", static_cast<double>(shards_total_))
                   .num("completed_prior", static_cast<double>(completed_prior))
                   .num("quarantined_prior",
                        static_cast<double>(quarantined_prior))
                   .num("pending", static_cast<double>(pending))
                   .num("workers", static_cast<double>(workers_))
                   .boolean("subprocess", subprocess_));
}

void CampaignTelemetry::campaignFinished(std::size_t completed,
                                         std::size_t quarantined,
                                         std::size_t failed_attempts,
                                         std::size_t trials_total,
                                         bool stopped_early) {
  events_.emit(event("campaign_finished")
                   .num("completed", static_cast<double>(completed))
                   .num("quarantined", static_cast<double>(quarantined))
                   .num("failed_attempts", static_cast<double>(failed_attempts))
                   .num("trials", static_cast<double>(trials_total))
                   .boolean("stopped_early", stopped_early)
                   .boolean("full_coverage",
                            completed == shards_total_));
}

void CampaignTelemetry::shardClaimed(const std::string& hash,
                                     std::size_t index, double queue_wait_ms) {
  events_.emit(event("shard_claimed")
                   .str("shard", hash)
                   .num("index", static_cast<double>(index))
                   .num("queue_wait_ms", queue_wait_ms));
}

void CampaignTelemetry::attemptStarted(const std::string& hash, int attempt) {
  events_.emit(event("attempt_started")
                   .str("shard", hash)
                   .num("attempt", attempt));
}

void CampaignTelemetry::execStarted(const std::string& hash, int attempt,
                                    const std::string& origin, int slot) {
  obs::Event e = event("shard_exec_started");
  e.str("shard", hash).num("attempt", attempt).str("origin", origin);
  if (slot >= 0) {
    e.num("slot", slot);
  }
  events_.emit(e);
}

void CampaignTelemetry::execFinished(const std::string& hash, int attempt,
                                     const std::string& origin, int slot,
                                     double exec_ms, double engine_us,
                                     int trials) {
  obs::Event e = event("shard_exec_finished");
  e.str("shard", hash).num("attempt", attempt).str("origin", origin);
  if (slot >= 0) {
    e.num("slot", slot);
  }
  e.num("exec_ms", exec_ms);
  if (engine_us >= 0) {
    e.num("engine_us", engine_us);
  }
  e.num("trials", trials);
  events_.emit(e);
}

void CampaignTelemetry::attemptFailed(const std::string& hash, int attempt,
                                      int max_attempts,
                                      const std::string& error,
                                      int backoff_ms) {
  obs::Event e = event("attempt_failed");
  e.str("shard", hash)
      .num("attempt", attempt)
      .num("max_attempts", max_attempts)
      .str("error", error);
  if (attempt < max_attempts) {
    e.num("backoff_ms", backoff_ms);
  }
  events_.emit(e);
}

void CampaignTelemetry::shardCommitted(const std::string& hash, int attempt,
                                       const ShardResult& result) {
  events_.emitDurable(event("shard_committed")
                          .str("shard", hash)
                          .num("attempt", attempt)
                          .num("trials", result.trials)
                          .raw("result", result.toJson()));
}

void CampaignTelemetry::shardQuarantined(const std::string& hash, int attempts,
                                         const std::string& error) {
  events_.emitDurable(event("shard_quarantined")
                          .str("shard", hash)
                          .num("attempts", attempts)
                          .str("error", error));
}

void CampaignTelemetry::shardRequeued(const std::string& hash) {
  events_.emitDurable(event("shard_requeued").str("shard", hash));
}

void CampaignTelemetry::workerSpawned(int slot, pid_t pid, double spawn_ms) {
  events_.emit(event("worker_spawned")
                   .num("slot", slot)
                   .num("pid", static_cast<double>(pid))
                   .num("spawn_ms", spawn_ms));
}

void CampaignTelemetry::workerExited(int slot, pid_t pid, int status,
                                     const std::string& reason) {
  events_.emit(event("worker_exited")
                   .num("slot", slot)
                   .num("pid", static_cast<double>(pid))
                   .num("status", status)
                   .str("reason", reason));
}

void CampaignTelemetry::workerEvent(int slot, int attempt,
                                    const std::string& line) {
  obs::Event e("worker_event");
  try {
    const obs::Json parsed = obs::Json::parse(line);
    DYNET_CHECK(parsed.isObject() && parsed.has("type"))
        << "worker event line without a type";
    const std::string& type = parsed.at("type").str();
    // The durable records are the supervisor's alone.
    DYNET_CHECK(type == "shard_exec_started" || type == "shard_exec_finished")
        << "a worker may not emit '" << type << "' events";
    e = event(type);
    if (parsed.has("shard")) {
      e.str("shard", parsed.at("shard").str());
    }
    e.num("attempt", attempt).str("origin", "worker").num("slot", slot);
    for (const char* key : {"exec_ms", "engine_us", "trials"}) {
      if (parsed.has(key) && parsed.at(key).isNumber()) {
        e.num(key, parsed.at(key).number());
      }
    }
  } catch (const util::CheckError& err) {
    humanLine("[campaign] dropping worker event: " + err.message());
    return;
  }
  events_.emit(e);
}

void CampaignTelemetry::workerStderr(int slot, const std::string& line) {
  events_.emit(event("worker_stderr").num("slot", slot).str("line", line));
  humanLine(line);
}

void CampaignTelemetry::writeSchedulerProfile(
    const obs::MetricsRegistry& merged) {
  store_.writeFile("scheduler_profile.json", merged.toJson() + "\n");
}

}  // namespace dynet::campaign
