// Campaign sweep specs and content-addressed shards.
//
// A campaign is the paper's figure workflow made crash-safe: a JSON grid of
// protocol × adversary × n × fault plan × seed range is expanded into
// SHARDS — one (cell, seed block) unit of work each — and every shard is
// content-addressed by the FNV-1a hash of its canonical config string.
// The hash is the shard's identity everywhere: the checkpoint filename its
// result commits under (campaign/store.h), the resume key that lets a
// SIGKILL'd campaign skip completed work, and the summary-cache key that
// lets a repeated query hit the checkpoint directory instead of
// re-simulating.
//
// Determinism contract: a shard's result is a pure function of its config
// (trial i runs with util::hashCombine(seed_base, i), exactly like
// sim::BatchRunner), so two campaigns over the same spec — interrupted or
// not, in-process or subprocess, any worker count — merge into
// byte-identical reports.  docs/CAMPAIGNS.md documents the spec format.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_plan.h"
#include "sim/process.h"

namespace dynet::obs {
class Json;
}  // namespace dynet::obs

namespace dynet::campaign {

/// 64-bit FNV-1a — the content-address hash for shard configs (also used
/// by the golden-corpus trace digests); dataset::fnv1a64 under the
/// campaign layer's name.
std::uint64_t fnv1a64(std::string_view data);

/// Lower-case 16-hex-digit rendering of a 64-bit hash.
std::string hashHex(std::uint64_t h);

/// How the supervisor treats a shard that keeps failing.
struct RetryPolicy {
  /// Total tries per shard (first attempt + retries); after the last
  /// failure the shard is quarantined and the campaign continues.
  int max_attempts = 3;
  /// Per-shard wall-clock budget for a subprocess worker; a worker that
  /// exceeds it is SIGKILLed and the attempt counts as a strike.
  int timeout_ms = 120'000;
  /// Exponential backoff before retry k (1-based): backoff_ms * 2^(k-1),
  /// capped at backoff_max_ms.
  int backoff_ms = 100;
  int backoff_max_ms = 5'000;

  int backoffDelayMs(int failed_attempts) const;
};

/// One fault-plan grid point.  `sabotage` is a harness-level test hook (it
/// breaks the WORKER, not the simulated network): "" none, "crash" the
/// worker exits before running the shard, "hang" it sleeps past any
/// timeout, "crash_once" it crashes only while `sabotage_marker` does not
/// exist (creating it first) — a flaky shard that succeeds on retry.
/// In-process execution maps all of these to a thrown attempt failure
/// ("hang" cannot be killed without a process boundary).
struct ShardFault {
  std::string name = "none";
  faults::FaultConfig config;
  std::string sabotage;
  std::string sabotage_marker;
};

/// One unit of schedulable work: a sweep cell plus a seed block.
struct ShardConfig {
  std::string protocol = "flood";
  std::string adversary = "static_path";
  sim::NodeId n = 16;
  int trials = 1;
  /// BatchRunner base seed for this shard; trial i uses
  /// hashCombine(seed_base, i).
  std::uint64_t seed_base = 1;
  sim::Round max_rounds = 200'000;
  // Protocol/adversary knobs, defaults matching tools/dynet_cli.
  int diameter = 8;
  int k = 0;            // 0 = per-protocol default (count 128, leader 64)
  double p = 0;         // 0 = per-adversary default (gnp 0.02, dual_ring 0.5)
  int interval = 8;
  int churn = 2;
  double n_estimate = 0;  // 0 = 1.1 * n
  double c = 0.25;
  // Trace replay (adversary == "trace"; docs/DATASETS.md).  All of these
  // are emitted into the canonical JSON only when set away from their
  // defaults, so shard hashes of non-trace campaigns are unchanged.
  std::string trace;                 // dataset path ("" = no trace)
  std::string trace_policy = "wrap"; // end-of-trace: wrap | clamp | mirror
  bool trace_offset = false;         // seeded per-trial round offset
  bool trace_spine = true;           // connectivity spine overlay
  double trace_bucket = 1.0;         // event-list time-bucket width
  /// Anonymous-network mode (EngineConfig::anonymous).  The anon_*
  /// protocols force it on at execution time regardless of this flag.
  bool anonymous = false;
  // Distance-hardness gadget knobs (adversary == "ach_gadget" or
  // "bk_gadget"; docs/DIAMETER.md).  Emitted into the canonical JSON only
  // when set away from their defaults, preserving existing shard hashes.
  int gadget_width = 0;         // 0 = auto per family
  int stretch = 0;              // bk_gadget antenna length
  bool gadget_intersect = false;  // plant the diameter-raising instance
  ShardFault fault;

  /// Single-line JSON with a fixed key order and round-trippable number
  /// formatting — the content the shard hash addresses, and the exact line
  /// a supervisor sends its worker.
  std::string canonicalJson() const;

  /// hashHex(fnv1a64(canonicalJson())).
  std::string hash() const;
};

/// Parses a canonical (or hand-written) shard-config JSON object; unknown
/// keys and unknown protocol/adversary names fail loudly.
ShardConfig parseShardConfig(const obs::Json& json);

/// The integer in JSON field `key`, whose parsed value is `value`: every
/// integer of a campaign spec, shard config or shard result is read through
/// here.  A value that is not finite, not integral or outside [lo, hi]
/// throws a CheckError naming the key and the value (casting such a double
/// to an integer type would be undefined behaviour).  Bounds must lie
/// within +-2^53, where doubles are exact.
std::int64_t integerField(const obs::Json& value, const std::string& key,
                          std::int64_t lo, std::int64_t hi);

/// The real in JSON field `key`, whose parsed value is `value`: every real
/// of a campaign spec or shard config is read through here.  A value that
/// is not finite or outside [lo, hi] ((lo, hi] when `open_lo`) throws a
/// CheckError naming the key and the value.
double realField(const obs::Json& value, const std::string& key, double lo,
                 double hi, bool open_lo = false);

/// The sweep grid, parsed from the user-facing spec JSON: every shard is a
/// copy of `knobs` with the grid's protocol, adversary, n, fault and seed
/// block filled in.
struct CampaignSpec {
  std::string name = "campaign";
  std::vector<std::string> protocols;
  std::vector<std::string> adversaries;
  std::vector<sim::NodeId> nodes;
  std::vector<ShardFault> faults;  // defaults to one zero-fault entry
  std::uint64_t seed_base = 1;
  int seed_count = 1;       // total trials per sweep cell
  int seeds_per_shard = 1;  // trials per shard (last block may be smaller)
  /// The shard template: max_rounds and the protocol, adversary, trace and
  /// gadget knobs.  Its grid fields are overwritten per shard.
  ShardConfig knobs;
  RetryPolicy retry;

  /// Parses + validates spec JSON text (docs/CAMPAIGNS.md).  Unknown keys,
  /// unknown zoo names, and non-positive counts fail loudly.
  static CampaignSpec parse(const std::string& json_text);
  /// Reads `path` and parses it.
  static CampaignSpec load(const std::string& path);

  /// Expands the grid in deterministic order (protocol, adversary, n,
  /// fault, seed block) — the merge order of the final report.
  std::vector<ShardConfig> expandShards() const;
};

}  // namespace dynet::campaign
