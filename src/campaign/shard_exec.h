// Shard execution: one content-addressed shard config in, one deterministic
// result out.
//
// This is the single construction path for the protocol/adversary zoo by
// name — tools/dynet_cli builds its runs through it too, so the campaign
// layer and the interactive CLI can never drift on what "leader_unknown_d
// vs random_tree at n=64" means.  runShard executes the shard's trials
// through sim::BatchRunner (sequentially: campaigns parallelize across
// shards, not within them) and returns raw per-trial samples, so merged
// reports can do percentile math over the union of shards.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "sim/process.h"

namespace dynet::obs {
class Json;
class MetricsRegistry;
}  // namespace dynet::obs

namespace dynet::campaign {

/// The CLI-visible zoo (same names and construction as tools/dynet_cli).
const std::vector<std::string>& protocolNames();
const std::vector<std::string>& adversaryNames();

/// Builds the named protocol's factory for one trial.  `seed` feeds
/// seed-dependent protocols (counting, leader election); knobs come from
/// the shard config with per-protocol defaults for k / n_estimate.
/// Unknown names throw util::CheckError.
std::unique_ptr<sim::ProcessFactory> makeProtocolFactory(
    const ShardConfig& shard, std::uint64_t seed);

/// Builds the named adversary for one trial.  Unknown names throw.
std::unique_ptr<sim::Adversary> makeAdversary(const ShardConfig& shard,
                                              std::uint64_t seed);

/// The engine configuration the shard's protocol runs under: max_rounds,
/// anonymous delivery for the anon_* protocols (or when the shard asks for
/// it) and full-duplex delivery for the diam_* protocols.  Neither forced
/// flag is part of the canonical JSON, so shard hashes do not see them.
sim::EngineConfig makeEngineConfig(const ShardConfig& shard);

/// One completed shard: per-trial metric samples in trial order.
struct ShardResult {
  std::string hash;  // the config hash this result answers for
  int trials = 0;
  std::map<std::string, std::vector<double>> metrics;

  /// Single-line JSON (`{"dynet_shard":1,...}`) with deterministic key
  /// order and round-trippable numbers — the exact bytes a worker prints
  /// and a shard_committed record carries as its `result`.
  std::string toJson() const;
  static ShardResult parseJson(const std::string& text);
  static ShardResult fromJson(const obs::Json& root);
};

/// Runs every trial of the shard (sequentially, one engine per trial) and
/// collects the standard metric set: rounds, all_done, messages, bits,
/// max_bits_per_node, plus fault counters when the shard has a fault plan.
/// When `prof` is non-null a DYNET_PROF registry is installed for the
/// duration, so engine-level timers (prof/engine/run/...) accumulate there;
/// null leaves the calling thread's prof scope untouched.  Profiling never
/// feeds the result — the ShardResult stays a pure function of the config.
ShardResult runShard(const ShardConfig& shard,
                     obs::MetricsRegistry* prof = nullptr);

}  // namespace dynet::campaign
