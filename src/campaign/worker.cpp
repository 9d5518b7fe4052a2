#include "campaign/worker.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <unistd.h>

#include "campaign/shard_exec.h"
#include "campaign/spec.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace dynet::campaign {

namespace {

/// Worker-side sabotage: test hooks that break THIS process so the
/// supervisor's crash/timeout handling can be exercised for real.
/// _exit (not exit) so death looks like the abrupt crash it models.
void applySabotage(const ShardConfig& shard) {
  const std::string& mode = shard.fault.sabotage;
  if (mode.empty()) {
    return;
  }
  if (mode == "crash") {
    ::_exit(3);
  }
  if (mode == "hang") {
    for (;;) {  // wedge until the supervisor's timeout SIGKILLs us
      std::this_thread::sleep_for(std::chrono::seconds(3600));
    }
  }
  if (mode == "crash_once") {
    namespace fs = std::filesystem;
    if (!shard.fault.sabotage_marker.empty() &&
        !fs::exists(shard.fault.sabotage_marker)) {
      std::ofstream(shard.fault.sabotage_marker) << "struck\n";
      ::_exit(3);
    }
    return;  // marker present: behave this time (the retry that succeeds)
  }
  // Unknown modes are rejected at spec parse time; reaching here means the
  // parent sent a config this binary doesn't understand — fail loudly.
  ::_exit(4);
}

}  // namespace

int workerMain(std::istream& in, std::ostream& out) {
  std::string line;
  std::uint64_t seq = 0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    // Parse failures and simulation CheckErrors escape to the caller:
    // exit-with-diagnostic is the worker's only error channel, and the
    // supervisor turns it into a strike.
    const ShardConfig shard = parseShardConfig(obs::Json::parse(line));
    applySabotage(shard);
    const std::string hash = shard.hash();
    out << obs::Event("shard_exec_started").str("shard", hash).serialize(seq++)
        << "\n"
        << std::flush;  // flushed so the supervisor sees the span open live
    obs::MetricsRegistry prof;
    const auto start = std::chrono::steady_clock::now();
    const ShardResult result = runShard(shard, &prof);
    const double exec_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    obs::Event finished("shard_exec_finished");
    finished.str("shard", hash).num("exec_ms", exec_ms);
    const auto engine_us = prof.counters().find("prof/engine/run/total_us");
    if (engine_us != prof.counters().end()) {
      finished.num("engine_us",
                   static_cast<double>(engine_us->second.value));
    }
    finished.num("trials", result.trials);
    out << finished.serialize(seq++) << "\n"
        << result.toJson() << "\n"
        << std::flush;
  }
  return 0;
}

}  // namespace dynet::campaign
