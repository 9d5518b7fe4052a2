#include "campaign/spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "campaign/shard_exec.h"
#include "dataset/trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::campaign {

namespace {

void writeNumber(std::ostream& out, double v) { obs::writeJsonNumber(out, v); }

/// Shortest round-trip text of `v`: "1e+10", "8.9", "inf".
std::string shortest(double v) {
  char text[32];
  const std::to_chars_result printed =
      std::to_chars(text, text + sizeof text, v);
  return std::string(text, printed.ptr);
}

void writeFault(std::ostream& out, const ShardFault& f) {
  const faults::FaultConfig& fc = f.config;
  out << "{\"name\":\"" << f.name << "\",\"crash_fraction\":";
  writeNumber(out, fc.crash_fraction);
  out << ",\"crash_window\":" << fc.crash_window
      << ",\"restart\":" << (fc.restart ? "true" : "false")
      << ",\"restart_downtime\":" << fc.restart_downtime << ",\"drop_prob\":";
  writeNumber(out, fc.drop_prob);
  out << ",\"corrupt_prob\":";
  writeNumber(out, fc.corrupt_prob);
  out << ",\"deliver_corrupted\":" << (fc.deliver_corrupted ? "true" : "false")
      << ",\"sabotage\":\"" << f.sabotage << "\",\"sabotage_marker\":\""
      << f.sabotage_marker << "\"}";
}

/// Fails unless every key of `json` appears in `allowed` — typo'd spec
/// keys must not silently become defaults (the util::Cli convention).
void rejectUnknownKeys(const obs::Json& json,
                       const std::vector<std::string>& allowed,
                       const std::string& what) {
  for (const auto& [key, value] : json.members()) {
    DYNET_CHECK(std::find(allowed.begin(), allowed.end(), key) !=
                allowed.end())
        << what << ": unknown key '" << key << "'";
  }
}

constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
/// Largest seed base a JSON number carries exactly.
constexpr std::int64_t kSeedMax = std::int64_t{1} << 53;

/// integerField of json[key] narrowed to int, or `def` when the key is
/// absent.
int intOr(const obs::Json& json, const std::string& key, int def,
          std::int64_t lo = kIntMin, std::int64_t hi = kIntMax) {
  return json.has(key)
             ? static_cast<int>(integerField(json.at(key), key, lo, hi))
             : def;
}

/// realField of json[key], or `def` when the key is absent.
double realOr(const obs::Json& json, const std::string& key, double def,
              double lo, double hi, bool open_lo = false) {
  return json.has(key) ? realField(json.at(key), key, lo, hi, open_lo) : def;
}

std::string stringOr(const obs::Json& json, const std::string& key,
                     const std::string& def) {
  return json.has(key) ? json.at(key).str() : def;
}

bool boolOr(const obs::Json& json, const std::string& key, bool def) {
  return json.has(key) ? json.at(key).boolean() : def;
}

ShardFault parseFault(const obs::Json& json) {
  rejectUnknownKeys(json,
                    {"name", "crash_fraction", "crash_window", "restart",
                     "restart_downtime", "drop_prob", "corrupt_prob",
                     "deliver_corrupted", "sabotage", "sabotage_marker"},
                    "fault");
  ShardFault f;
  f.name = stringOr(json, "name", "none");
  f.config.crash_fraction = realOr(json, "crash_fraction", 0, 0, 1);
  f.config.crash_window = intOr(json, "crash_window", 64, 0);
  f.config.restart = boolOr(json, "restart", false);
  f.config.restart_downtime = intOr(json, "restart_downtime", 32, 0);
  f.config.drop_prob = realOr(json, "drop_prob", 0, 0, 1);
  f.config.corrupt_prob = realOr(json, "corrupt_prob", 0, 0, 1);
  f.config.deliver_corrupted = boolOr(json, "deliver_corrupted", false);
  f.sabotage = stringOr(json, "sabotage", "");
  f.sabotage_marker = stringOr(json, "sabotage_marker", "");
  DYNET_CHECK(f.sabotage.empty() || f.sabotage == "crash" ||
              f.sabotage == "hang" || f.sabotage == "crash_once")
      << "fault '" << f.name << "': unknown sabotage mode '" << f.sabotage
      << "' (expected crash, hang, or crash_once)";
  return f;
}

/// `keys` plus the knob keys that readKnobs reads: the keys a shard config
/// and a campaign spec share.
std::vector<std::string> withKnobKeys(std::vector<std::string> keys) {
  keys.insert(keys.end(),
              {"max_rounds", "diameter", "k", "p", "interval", "churn",
               "n_estimate", "c", "trace", "trace_policy", "trace_offset",
               "trace_spine", "trace_bucket", "anonymous", "gadget_width",
               "stretch", "gadget_intersect"});
  return keys;
}

/// Reads the knob keys of `json` into `shard`; an absent key keeps the
/// field's current value.  Each real lies in the range its consumer
/// enforces, so a bad value fails here, naming the key, and not inside a
/// shard.
void readKnobs(const obs::Json& json, ShardConfig& shard) {
  constexpr double kRealMax = std::numeric_limits<double>::max();
  shard.max_rounds = intOr(json, "max_rounds", shard.max_rounds, 1);
  shard.diameter = intOr(json, "diameter", shard.diameter);
  shard.k = intOr(json, "k", shard.k);
  shard.p = realOr(json, "p", shard.p, 0, 1);
  shard.interval = intOr(json, "interval", shard.interval);
  shard.churn = intOr(json, "churn", shard.churn);
  shard.n_estimate = realOr(json, "n_estimate", shard.n_estimate, 0, kRealMax);
  DYNET_CHECK(shard.n_estimate == 0 || shard.n_estimate >= 1)
      << "'n_estimate' = " << shortest(shard.n_estimate)
      << " is neither 0 (the 1.1 n default) nor at least 1";
  shard.c = realOr(json, "c", shard.c, 0, 1.0 / 3.0, /*open_lo=*/true);
  shard.trace = stringOr(json, "trace", shard.trace);
  shard.trace_policy = stringOr(json, "trace_policy", shard.trace_policy);
  DYNET_CHECK(shard.trace_policy == "wrap" || shard.trace_policy == "clamp" ||
              shard.trace_policy == "mirror")
      << "trace_policy '" << shard.trace_policy
      << "' (expected wrap, clamp, or mirror)";
  shard.trace_offset = boolOr(json, "trace_offset", shard.trace_offset);
  shard.trace_spine = boolOr(json, "trace_spine", shard.trace_spine);
  shard.trace_bucket = realOr(json, "trace_bucket", shard.trace_bucket, 0,
                              kRealMax, /*open_lo=*/true);
  shard.anonymous = boolOr(json, "anonymous", shard.anonymous);
  shard.gadget_width = intOr(json, "gadget_width", shard.gadget_width, 0);
  shard.stretch = intOr(json, "stretch", shard.stretch, 0);
  shard.gadget_intersect =
      boolOr(json, "gadget_intersect", shard.gadget_intersect);
}

/// The `trace` adversary and a trace path come as a pair.
void validateTracePath(const std::string& adversary, const std::string& trace) {
  if (adversary == "trace") {
    DYNET_CHECK(!trace.empty())
        << "adversary 'trace' needs a 'trace' dataset path (docs/DATASETS.md)";
  } else {
    DYNET_CHECK(trace.empty())
        << "'trace' path set but adversary is '" << adversary
        << "' (only the 'trace' adversary replays a dataset)";
  }
}

void validateZooNames(const std::vector<std::string>& names,
                      const std::vector<std::string>& valid,
                      const std::string& kind) {
  for (const std::string& name : names) {
    DYNET_CHECK(std::find(valid.begin(), valid.end(), name) != valid.end())
        << "unknown " << kind << " '" << name << "' in campaign spec";
  }
}

}  // namespace

std::int64_t integerField(const obs::Json& value, const std::string& key,
                          std::int64_t lo, std::int64_t hi) {
  const double v = value.number();
  if (std::isfinite(v) && v == std::floor(v) &&
      v >= static_cast<double>(lo) && v <= static_cast<double>(hi)) {
    return static_cast<std::int64_t>(v);
  }
  DYNET_CHECK(false) << "'" << key << "' = " << shortest(v)
                     << " is not an integer in [" << lo << ", " << hi << "]";
  return 0;  // unreachable: DYNET_CHECK(false) throws
}

double realField(const obs::Json& value, const std::string& key, double lo,
                 double hi, bool open_lo) {
  const double v = value.number();
  if (std::isfinite(v) && (open_lo ? v > lo : v >= lo) && v <= hi) {
    return v;
  }
  DYNET_CHECK(false) << "'" << key << "' = " << shortest(v)
                     << " is not a number in "
                     << (open_lo ? "(" : "[") << lo << ", " << hi << "]";
  return 0;  // unreachable: DYNET_CHECK(false) throws
}

std::uint64_t fnv1a64(std::string_view data) {
  return dataset::fnv1a64(data);
}

std::string hashHex(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

int RetryPolicy::backoffDelayMs(int failed_attempts) const {
  DYNET_CHECK(failed_attempts >= 1) << "backoff before any failure";
  double delay = backoff_ms;
  for (int i = 1; i < failed_attempts && delay < backoff_max_ms; ++i) {
    delay *= 2;
  }
  return static_cast<int>(std::min<double>(delay, backoff_max_ms));
}

std::string ShardConfig::canonicalJson() const {
  std::ostringstream out;
  // seed_base is a full 64-bit hashCombine value; as a bare JSON number it
  // would round-trip through the parser's double and lose low bits, so the
  // canonical form carries it as a hex string.
  out << "{\"protocol\":\"" << protocol << "\",\"adversary\":\"" << adversary
      << "\",\"n\":" << n << ",\"trials\":" << trials << ",\"seed_base\":\""
      << hashHex(seed_base) << "\",\"max_rounds\":" << max_rounds
      << ",\"diameter\":" << diameter << ",\"k\":" << k << ",\"p\":";
  writeNumber(out, p);
  out << ",\"interval\":" << interval << ",\"churn\":" << churn
      << ",\"n_estimate\":";
  writeNumber(out, n_estimate);
  out << ",\"c\":";
  writeNumber(out, c);
  // Trace/anonymous keys appear only when set away from their defaults, so
  // every pre-trace shard hash (checkpoint filenames in the wild) is
  // preserved byte for byte.
  if (!trace.empty()) {
    out << ",\"trace\":\"" << trace << "\",\"trace_policy\":\""
        << trace_policy << "\",\"trace_offset\":"
        << (trace_offset ? "true" : "false")
        << ",\"trace_spine\":" << (trace_spine ? "true" : "false")
        << ",\"trace_bucket\":";
    writeNumber(out, trace_bucket);
  }
  if (anonymous) {
    out << ",\"anonymous\":true";
  }
  // Gadget keys follow the same only-when-set rule (docs/DIAMETER.md).
  if (gadget_width != 0) {
    out << ",\"gadget_width\":" << gadget_width;
  }
  if (stretch != 0) {
    out << ",\"stretch\":" << stretch;
  }
  if (gadget_intersect) {
    out << ",\"gadget_intersect\":true";
  }
  out << ",\"fault\":";
  writeFault(out, fault);
  out << "}";
  return out.str();
}

std::string ShardConfig::hash() const {
  return hashHex(fnv1a64(canonicalJson()));
}

ShardConfig parseShardConfig(const obs::Json& json) {
  rejectUnknownKeys(json,
                    withKnobKeys({"protocol", "adversary", "n", "trials",
                                  "seed_base", "fault"}),
                    "shard config");
  ShardConfig shard;
  shard.protocol = json.at("protocol").str();
  shard.adversary = json.at("adversary").str();
  validateZooNames({shard.protocol}, protocolNames(), "protocol");
  validateZooNames({shard.adversary}, adversaryNames(), "adversary");
  shard.n = static_cast<sim::NodeId>(
      integerField(json.at("n"), "n", 2, kIntMax));
  shard.trials = intOr(json, "trials", 1, 1);
  if (json.has("seed_base") && json.at("seed_base").isString()) {
    // Canonical form: 16 hex digits (see canonicalJson).
    const std::string& hex = json.at("seed_base").str();
    DYNET_CHECK(!hex.empty() && hex.size() <= 16 &&
                hex.find_first_not_of("0123456789abcdef") == std::string::npos)
        << "shard seed_base '" << hex << "' is not a hex seed";
    shard.seed_base = std::stoull(hex, nullptr, 16);
  } else {
    // Hand-written specs may use a small decimal literal.
    shard.seed_base = json.has("seed_base")
                          ? static_cast<std::uint64_t>(integerField(
                                json.at("seed_base"), "seed_base", 0, kSeedMax))
                          : 1;
  }
  readKnobs(json, shard);
  if (json.has("fault")) {
    shard.fault = parseFault(json.at("fault"));
  }
  validateTracePath(shard.adversary, shard.trace);
  return shard;
}

CampaignSpec CampaignSpec::parse(const std::string& json_text) {
  obs::Json root;
  try {
    root = obs::Json::parse(json_text);
  } catch (const util::CheckError& e) {
    DYNET_CHECK(false) << "malformed campaign spec: " << e.message();
  }
  DYNET_CHECK(root.isObject()) << "campaign spec must be a JSON object";
  rejectUnknownKeys(root,
                    withKnobKeys({"name", "protocols", "adversaries", "nodes",
                                  "faults", "seeds", "retry"}),
                    "campaign spec");
  CampaignSpec spec;
  spec.name = stringOr(root, "name", "campaign");
  for (const obs::Json& v : root.at("protocols").items()) {
    spec.protocols.push_back(v.str());
  }
  for (const obs::Json& v : root.at("adversaries").items()) {
    spec.adversaries.push_back(v.str());
  }
  for (const obs::Json& v : root.at("nodes").items()) {
    spec.nodes.push_back(
        static_cast<sim::NodeId>(integerField(v, "nodes", 2, kIntMax)));
  }
  DYNET_CHECK(!spec.protocols.empty() && !spec.adversaries.empty() &&
              !spec.nodes.empty())
      << "campaign spec needs non-empty protocols, adversaries, and nodes";
  validateZooNames(spec.protocols, protocolNames(), "protocol");
  validateZooNames(spec.adversaries, adversaryNames(), "adversary");
  if (root.has("faults")) {
    for (const obs::Json& v : root.at("faults").items()) {
      spec.faults.push_back(parseFault(v));
    }
  }
  if (spec.faults.empty()) {
    spec.faults.push_back(ShardFault{});  // the clean substrate
  }

  const obs::Json& seeds = root.at("seeds");
  rejectUnknownKeys(seeds, {"base", "count", "per_shard"}, "seeds");
  spec.seed_base = seeds.has("base")
                       ? static_cast<std::uint64_t>(integerField(
                             seeds.at("base"), "seeds.base", 0, kSeedMax))
                       : 1;
  spec.seed_count = intOr(seeds, "count", 1, 1);
  spec.seeds_per_shard = intOr(seeds, "per_shard", spec.seed_count, 1);

  readKnobs(root, spec.knobs);
  for (const std::string& adversary : spec.adversaries) {
    validateTracePath(adversary, spec.knobs.trace);
  }

  if (root.has("retry")) {
    const obs::Json& retry = root.at("retry");
    rejectUnknownKeys(
        retry, {"max_attempts", "timeout_ms", "backoff_ms", "backoff_max_ms"},
        "retry");
    spec.retry.max_attempts =
        intOr(retry, "max_attempts", spec.retry.max_attempts, 1);
    spec.retry.timeout_ms =
        intOr(retry, "timeout_ms", spec.retry.timeout_ms, 1);
    spec.retry.backoff_ms =
        intOr(retry, "backoff_ms", spec.retry.backoff_ms, 0);
    spec.retry.backoff_max_ms =
        intOr(retry, "backoff_max_ms", spec.retry.backoff_max_ms, 0);
  }
  return spec;
}

CampaignSpec CampaignSpec::load(const std::string& path) {
  std::ifstream in(path);
  DYNET_CHECK(in.good()) << "cannot open campaign spec " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::vector<ShardConfig> CampaignSpec::expandShards() const {
  // Programmatically built specs may leave `faults` empty; that means the
  // same thing as the parser's default — one clean (zero-fault) entry.
  const std::vector<ShardFault> fault_grid =
      faults.empty() ? std::vector<ShardFault>{ShardFault{}} : faults;
  std::vector<ShardConfig> shards;
  for (const std::string& protocol : protocols) {
    for (const std::string& adversary : adversaries) {
      for (const sim::NodeId n : nodes) {
        for (const ShardFault& fault : fault_grid) {
          for (int begin = 0; begin < seed_count; begin += seeds_per_shard) {
            ShardConfig shard = knobs;
            shard.protocol = protocol;
            shard.adversary = adversary;
            shard.n = n;
            shard.trials = std::min(seeds_per_shard, seed_count - begin);
            // Derived, not sequential: shards of the same cell get distinct
            // base seeds, and the block is reproducible from (spec seed,
            // block start) alone.
            shard.seed_base = util::hashCombine(
                seed_base, static_cast<std::uint64_t>(begin));
            shard.fault = fault;
            shards.push_back(std::move(shard));
          }
        }
      }
    }
  }
  return shards;
}

}  // namespace dynet::campaign
