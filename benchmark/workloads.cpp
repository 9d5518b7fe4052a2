#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "adversary/trace_adversary.h"
#include "campaign/scheduler.h"
#include "campaign/shard_exec.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "dataset/compiled_format.h"
#include "dataset/text_format.h"
#include "dataset/trace.h"
#include "faults/fault_plan.h"
#include "net/diameter.h"
#include "obs/json.h"
#include "util/check.h"
#include "util/rng.h"

namespace dynet::bench {
namespace {

namespace fs = std::filesystem;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double secondsSince(Clock::time_point t0) { return msSince(t0) / 1e3; }

std::uint64_t opSeed(const Options& options, std::uint64_t i) {
  return util::hashCombine(options.seed, i);
}

PhaseLedger* ledgerOf(Tracing* tracing) {
  return tracing != nullptr ? &tracing->ledger : nullptr;
}

std::string chromePathOf(Tracing* tracing) {
  return tracing != nullptr ? tracing->takeChromeTracePath() : std::string();
}

OpResult fromRun(const RunSummary& s, sim::NodeId n) {
  OpResult r;
  r.ms = s.ms;
  r.node_rounds =
      static_cast<double>(s.result.rounds_executed) * static_cast<double>(n);
  Digest d;
  d.add(static_cast<std::uint64_t>(s.result.rounds_executed));
  d.add(s.result.messages_sent);
  d.add(s.result.bits_sent);
  d.add(s.state_digest);
  r.digest = d.value();
  return r;
}

// ---------------------------------------------------------------------------

// The paper's headline protocol, the unknown-D LEADERELECT of §7, at small
// n against the E6 adversary mix.  Thousands of rounds per trial on the
// object process path with arena-materialised inboxes, so per-round fixed
// costs dominate: phase dispatch, observe, the random_tree rebuild.
class LeaderDynamic final : public Workload {
 public:
  explicit LeaderDynamic(const Options& options)
      : options_(options), n_(options.smoke ? 16 : 64) {}

  double setup() override {
    const Clock::time_point t0 = Clock::now();
    const OpResult warm = op(0, nullptr);
    if (!warm.failure.empty()) {
      setup_failures.push_back("warm-up op: " + warm.failure);
    }
    return secondsSince(t0);
  }

  OpResult op(std::uint64_t i, Tracing* tracing) override {
    static const char* const kAdversaries[] = {"random_tree", "anchored_star",
                                               "shuffle_path"};
    campaign::ShardConfig shard;
    shard.protocol = "leader_unknown_d";
    shard.adversary = kAdversaries[i % 3];
    shard.n = n_;
    const std::uint64_t seed = opSeed(options_, i);
    const RunSummary s = runEngine(
        [&] {
          EngineSpec spec;
          spec.factory = campaign::makeProtocolFactory(shard, seed);
          spec.adversary = campaign::makeAdversary(shard, seed);
          spec.config.max_rounds = shard.max_rounds;
          spec.seed = seed;
          return spec;
        },
        ledgerOf(tracing), chromePathOf(tracing));
    OpResult r = fromRun(s, n_);
    std::ostringstream why;
    if (!s.result.all_done) {
      why << "no leader within " << shard.max_rounds << " rounds";
    } else {
      for (sim::NodeId v = 0; v < n_; ++v) {
        if (s.outputs[static_cast<std::size_t>(v)] !=
            static_cast<std::uint64_t>(n_)) {
          why << "node " << v << " elected key "
              << s.outputs[static_cast<std::size_t>(v)] << ", expected " << n_;
          break;
        }
      }
    }
    if (!why.str().empty()) {
      r.failure = "leader_dynamic op " + std::to_string(i) + " (" +
                  shard.adversary + "): " + why.str();
    }
    return r;
  }

  std::uint64_t passLength() const override { return 3; }

 private:
  Options options_;
  sim::NodeId n_;
};

// ---------------------------------------------------------------------------

// The one large-n workload: flood's structure-of-arrays model under
// delta-native edge churn, with a working set a few times the per-core L2.
// (At n=131072 the working set sits in the L3 other tenants share, and
// step times swung 1.7x more between runs.)  One op is one Engine::step; a
// trial is `horizon_` steps on a fresh engine, whose construction is
// outside the op.  The zoo flood never reports done, so the horizon is
// explicit.
class FloodLarge final : public Workload {
 public:
  explicit FloodLarge(const Options& options)
      : options_(options),
        n_(options.smoke ? 8192 : 32768),
        horizon_(options.smoke ? 32 : 128) {
    shard_.protocol = "flood";
    shard_.adversary = "edge_churn";
    shard_.churn = 16;
    shard_.n = n_;
  }

  double setup() override {
    const Clock::time_point t0 = Clock::now();
    startTrial(0, nullptr);
    for (int r = 0; r < 16; ++r) {
      engine_->step();
    }
    engine_.reset();
    return secondsSince(t0);
  }

  OpResult op(std::uint64_t i, Tracing* tracing) override {
    const std::uint64_t step = i % horizon_;
    if (step == 0) {
      startTrial(i / horizon_, tracing);
    }
    OpResult r;
    if (traced_ != nullptr) {
      r.ms = traced_->timedStep(*engine_) / 1e3;
    } else {
      const Clock::time_point t0 = Clock::now();
      engine_->step();
      r.ms = msSince(t0);
    }
    r.node_rounds = static_cast<double>(n_);
    // Gate: a connected round informs at least one new node until all are.
    const sim::Round round = engine_->currentRound();
    std::int64_t informed = 0;
    for (sim::NodeId v = 0; v < n_; ++v) {
      informed += engine_->nodeOutput(v) != 0 ? 1 : 0;
    }
    const std::int64_t floor =
        std::min<std::int64_t>(n_, static_cast<std::int64_t>(round) + 1);
    if (informed < floor || informed < last_informed_) {
      std::ostringstream why;
      why << "flood_large trial " << i / horizon_ << " round " << round
          << ": " << informed << " informed, previous " << last_informed_
          << ", floor " << floor;
      r.failure = why.str();
    }
    last_informed_ = informed;
    const sim::RunResult& result = engine_->result();
    Digest d;
    d.add(static_cast<std::uint64_t>(round));
    d.add(static_cast<std::uint64_t>(informed));
    d.add(result.messages_sent);
    d.add(result.bits_sent);
    if (step + 1 == horizon_) {
      for (sim::NodeId v = 0; v < n_; ++v) {
        d.add(engine_->stateDigest(v));
      }
      if (traced_ != nullptr) {
        engine_->finalizeMetrics();
        traced_->finish(*engine_, ctor_us_, tracing->ledger, chrome_path_);
      }
      engine_.reset();
      traced_.reset();
    }
    r.digest = d.value();
    return r;
  }

  std::uint64_t passLength() const override { return horizon_; }

 private:
  void startTrial(std::uint64_t trial, Tracing* tracing) {
    engine_.reset();
    traced_.reset();
    const std::uint64_t seed = opSeed(options_, trial);
    factory_ = campaign::makeProtocolFactory(shard_, seed);
    std::unique_ptr<sim::Adversary> adversary =
        campaign::makeAdversary(shard_, seed);
    sim::EngineConfig config;
    config.max_rounds = static_cast<sim::Round>(horizon_);
    if (tracing != nullptr) {
      traced_ = std::make_unique<TracedRun>();
      config.metrics = traced_->sink();
      adversary = traced_->wrap(std::move(adversary));
      chrome_path_ = tracing->takeChromeTracePath();
    }
    const Clock::time_point t0 = Clock::now();
    engine_ = std::make_unique<sim::Engine>(*factory_, std::move(adversary),
                                            config, seed);
    ctor_us_ = msSince(t0) * 1e3;
    last_informed_ = 0;
  }

  Options options_;
  sim::NodeId n_;
  std::uint64_t horizon_;
  campaign::ShardConfig shard_;
  std::unique_ptr<sim::ProcessFactory> factory_;
  // Declared before the engine, which points at its sink.
  std::unique_ptr<TracedRun> traced_;
  std::unique_ptr<sim::Engine> engine_;
  std::string chrome_path_;
  double ctor_us_ = 0;
  std::int64_t last_informed_ = 0;
};

// ---------------------------------------------------------------------------

// The dataset layer end to end.  Set-up is the cold ingest of an
// event-list trace (parse + compile + .dtc write); each op is a cache-hit
// load plus a Di Luna–Baldoni anonymous-counting replay through
// TraceAdversary from a seeded offset, whose seek replays every delta from
// round 1.  The seek makes an op's cost depend on its offset, so the ops
// cycle over kOffsets seeds, one offset per op class, with one offset in
// each kOffsets-th of the trace: every seed then seeks about as far in
// total.
class TraceReplay final : public Workload {
 public:
  explicit TraceReplay(const Options& options)
      : options_(options),
        n_(options.smoke ? 128 : 1024),
        trace_rounds_(options.smoke ? 1024 : 2048),
        churn_(options.smoke ? 8 : 16),
        horizon_(options.smoke ? 64 : 256),
        path_((fs::path(options.work_dir) / "trace.events").string()) {}

  double setup() override {
    if (!fs::exists(path_)) {
      // Input generation is the benchmark's, not the user's: untimed.
      const dataset::CompiledTrace generated = dataset::randomTrace(
          n_, trace_rounds_, churn_, opSeed(options_, 0x7472616365ULL));
      std::ofstream out(path_);
      DYNET_CHECK(out.good()) << "cannot open " << path_;
      dataset::writeEventList(out, generated);
    }
    fs::remove(path_ + ".dtc");
    const Clock::time_point t0 = Clock::now();
    const dataset::LoadedTrace cold = dataset::loadTrace(path_);
    const double seconds = secondsSince(t0);
    if (text_trace_ == nullptr) {
      text_trace_ = cold.trace;
      const dataset::LoadedTrace cached = dataset::loadTrace(path_);
      if (cold.from_cache || !cached.from_cache) {
        setup_failures.push_back("trace_replay: sidecar cache not used");
      } else if (!(*cached.trace == *cold.trace)) {
        setup_failures.push_back(
            "trace_replay: cache-loaded trace differs from the text parse");
      }
      chooseSeeds();
      text_op0_digest_ = replay(0, text_trace_, nullptr).digest;
    }
    return seconds;
  }

  OpResult op(std::uint64_t i, Tracing* tracing) override {
    if (tracing != nullptr && parse_s_ == 0) {
      timeIngestStages();
    }
    OpResult r = replay(i, nullptr, tracing);
    if (r.failure.empty() && i == 0 && r.digest != text_op0_digest_) {
      r.failure =
          "trace_replay op 0: replay digest differs between the cache-loaded "
          "and the text-parsed trace";
    }
    return r;
  }

  std::uint64_t passLength() const override { return kOffsets; }

  void layerMetrics(std::map<std::string, double>& out) const override {
    out["dataset.parse_s"] = parse_s_;
    out["dataset.compile_s"] = compile_s_;
    out["dataset.cache_write_s"] = cache_write_s_;
    out["dataset.text_mb_per_s"] = ratio(text_mb_, parse_s_);
    out["dataset.cache_load_ms_p50"] = quantile(cache_load_ms_, 0.5);
  }

 private:
  // One op; `trace` null loads it from the sidecar cache inside the op.
  OpResult replay(std::uint64_t i,
                  std::shared_ptr<const dataset::CompiledTrace> trace,
                  Tracing* tracing) {
    campaign::ShardConfig shard;
    shard.protocol = "anon_count";
    shard.n = n_;
    const std::uint64_t seed = seeds_[i % kOffsets];
    const bool load = trace == nullptr;
    bool from_cache = true;
    double load_ms = 0;
    const RunSummary s = runEngine(
        [&] {
          if (load) {
            const Clock::time_point t0 = Clock::now();
            dataset::LoadedTrace loaded = dataset::loadTrace(path_);
            load_ms = msSince(t0);
            from_cache = loaded.from_cache;
            trace = std::move(loaded.trace);
          }
          adv::TraceReplayOptions replay_options;
          replay_options.seeded_offset = true;
          replay_options.seed = seed;
          EngineSpec spec;
          spec.factory = campaign::makeProtocolFactory(shard, seed);
          spec.adversary =
              std::make_unique<adv::TraceAdversary>(trace, replay_options);
          spec.config.max_rounds = static_cast<sim::Round>(horizon_);
          spec.config.anonymous = true;
          spec.seed = seed;
          return spec;
        },
        ledgerOf(tracing), chromePathOf(tracing));
    if (load && tracing != nullptr) {
      cache_load_ms_.push_back(load_ms);
    }
    OpResult r = fromRun(s, n_);
    if (!from_cache) {
      r.failure = "trace_replay op " + std::to_string(i) + ": cache miss";
    } else if (s.result.rounds_executed != static_cast<sim::Round>(horizon_)) {
      r.failure = "trace_replay op " + std::to_string(i) + ": ran " +
                  std::to_string(s.result.rounds_executed) + " rounds, not " +
                  std::to_string(horizon_);
    }
    return r;
  }

  // Op class j's seed: the first of the seeds hashCombine(opSeed(j), k),
  // k = 0, 1, ..., whose replay starts in the j-th kOffsets-th of the
  // trace.  Untimed, like the trace's generation.
  void chooseSeeds() {
    seeds_.clear();
    for (std::uint64_t j = 0; j < kOffsets; ++j) {
      for (std::uint64_t k = 0;; ++k) {
        adv::TraceReplayOptions replay_options;
        replay_options.seeded_offset = true;
        replay_options.seed = util::hashCombine(opSeed(options_, j), k);
        const adv::TraceAdversary probe(text_trace_, replay_options);
        const auto start =
            static_cast<std::uint64_t>(probe.tracePosition(1) - 1);
        if (start * kOffsets / static_cast<std::uint64_t>(trace_rounds_) ==
            j) {
          seeds_.push_back(replay_options.seed);
          break;
        }
      }
    }
  }

  // The three stages loadTrace runs on a cold cache, timed one by one.
  void timeIngestStages() {
    const std::string staged = path_ + ".staged.dtc";
    Clock::time_point t0 = Clock::now();
    const dataset::TraceEvents events = dataset::parseEventListFile(path_);
    parse_s_ = secondsSince(t0);
    t0 = Clock::now();
    const dataset::CompiledTrace compiled = dataset::compile(events);
    compile_s_ = secondsSince(t0);
    t0 = Clock::now();
    dataset::writeCompiledFile(staged, compiled);
    cache_write_s_ = secondsSince(t0);
    fs::remove(staged);
    text_mb_ = static_cast<double>(fs::file_size(path_)) / 1e6;
  }

  // Distinct offsets a run cycles over.  Each is timed about twenty times
  // in a 20 s run.
  static constexpr std::uint64_t kOffsets = 12;

  Options options_;
  sim::NodeId n_;
  sim::Round trace_rounds_;
  int churn_;
  std::uint64_t horizon_;
  std::string path_;
  std::shared_ptr<const dataset::CompiledTrace> text_trace_;
  std::vector<std::uint64_t> seeds_;  // per op class
  std::uint64_t text_op0_digest_ = 0;
  std::vector<double> cache_load_ms_;
  double parse_s_ = 0;
  double compile_s_ = 0;
  double cache_write_s_ = 0;
  double text_mb_ = 0;
};

// ---------------------------------------------------------------------------

// Distance computation on the Abboud–Censor-Hillel–Khoury and
// Bringmann–Krinninger hardness gadgets.  Duplex delivery and pipelined BFS
// token queues put heavy compute and traffic into every node-round, and the
// topology is static — the bypass for topology optimisations.  Each op
// rebuilds its lowerbound gadget; the diameter oracle runs once per
// instance in set-up.
class DiameterGadgets final : public Workload {
 public:
  explicit DiameterGadgets(const Options& options) : options_(options) {}

  double setup() override {
    const Clock::time_point t0 = Clock::now();
    instances_.clear();
    const std::vector<sim::NodeId> sizes =
        options_.smoke ? std::vector<sim::NodeId>{64}
                       : std::vector<sim::NodeId>{128, 256};
    for (const sim::NodeId n : sizes) {
      for (const char* family : {"ach_gadget", "bk_gadget"}) {
        for (const bool intersect : {false, true}) {
          Instance inst;
          inst.shard.adversary = family;
          inst.shard.n = n;
          inst.shard.gadget_intersect = intersect;
          inst.shard.stretch = inst.shard.adversary == "bk_gadget" ? 2 : 0;
          inst.seed = opSeed(options_, 0x6761646765740000ULL + instances_.size());
          const std::unique_ptr<sim::Adversary> adversary =
              campaign::makeAdversary(inst.shard, inst.seed);
          const net::GraphPtr g = adversary->topology(1, {});
          const Clock::time_point t_oracle = Clock::now();
          inst.diameter = net::staticDiameter(*g);
          oracle_ms_.push_back(msSince(t_oracle));
          inst.nodes = adversary->numNodes();
          instances_.push_back(inst);
        }
      }
    }
    const OpResult warm = op(0, nullptr);
    if (!warm.failure.empty()) {
      setup_failures.push_back("warm-up op: " + warm.failure);
    }
    return secondsSince(t0);
  }

  OpResult op(std::uint64_t i, Tracing* tracing) override {
    static const char* const kProtocols[] = {"diam_exact", "diam_2approx",
                                             "diam_32approx"};
    const Instance& inst = instances_[(i / 3) % instances_.size()];
    campaign::ShardConfig shard = inst.shard;
    shard.protocol = kProtocols[i % 3];
    const std::uint64_t seed = opSeed(options_, i);
    double build_ms = 0;
    const RunSummary s = runEngine(
        [&] {
          EngineSpec spec;
          spec.factory = campaign::makeProtocolFactory(shard, seed);
          const Clock::time_point t0 = Clock::now();
          spec.adversary = campaign::makeAdversary(shard, inst.seed);
          build_ms = msSince(t0);
          spec.config.max_rounds = shard.max_rounds;
          spec.config.duplex = true;
          spec.seed = seed;
          return spec;
        },
        ledgerOf(tracing), chromePathOf(tracing));
    if (tracing != nullptr) {
      gadget_build_ms_.push_back(build_ms);
    }
    OpResult r = fromRun(s, inst.nodes);
    const auto d = static_cast<std::uint64_t>(inst.diameter);
    const std::uint64_t est = s.outputs.front();
    std::ostringstream why;
    if (!s.result.all_done) {
      why << "never finished";
    } else if (shard.protocol == "diam_exact") {
      for (std::size_t v = 0; v < s.outputs.size(); ++v) {
        if (s.outputs[v] != d) {
          why << "node " << v << " output " << s.outputs[v];
          break;
        }
      }
    } else if (shard.protocol == "diam_2approx") {
      if (!(est <= d && d <= 2 * est)) {
        why << "estimate " << est << " violates est <= D <= 2 est";
      }
    } else if (!(2 * d / 3 <= est && est <= d)) {
      why << "estimate " << est << " outside [floor(2D/3), D]";
    }
    if (!why.str().empty()) {
      r.failure = "diameter_gadgets op " + std::to_string(i) + " (" +
                  shard.protocol + " on " + shard.adversary +
                  (shard.gadget_intersect ? "+" : "") + " n=" +
                  std::to_string(shard.n) + ", oracle D=" +
                  std::to_string(inst.diameter) + "): " + why.str();
    }
    return r;
  }

  std::uint64_t passLength() const override { return 3 * instances_.size(); }

  void layerMetrics(std::map<std::string, double>& out) const override {
    out["net.oracle_ms_p50"] = quantile(oracle_ms_, 0.5);
    out["lowerbound.gadget_build_ms_p50"] = quantile(gadget_build_ms_, 0.5);
  }

 private:
  struct Instance {
    campaign::ShardConfig shard;
    std::uint64_t seed = 0;
    int diameter = 0;
    sim::NodeId nodes = 0;
  };

  Options options_;
  std::vector<Instance> instances_;
  std::vector<double> oracle_ms_;
  std::vector<double> gadget_build_ms_;
};

// ---------------------------------------------------------------------------

// Bucket-interpolated quantile of a histogram read back from metrics.json
// (the estimate obs::Histogram::percentileEstimate makes).
double bucketQuantile(const std::vector<double>& bounds,
                      const std::vector<double>& counts, double q) {
  double total = 0;
  for (const double c : counts) {
    total += c;
  }
  if (total == 0) {
    return 0.0;
  }
  const double target = q * total;
  double seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] > 0 && seen + counts[b] >= target) {
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double hi = b < bounds.size() ? bounds[b] : lo;
      return lo + (hi - lo) * (target - seen) / counts[b];
    }
    seen += counts[b];
  }
  return bounds.back();
}

// Crash-safe sweeps with small shards, so scheduler and store costs are a
// large share: expansion, content hashing, fsync'd atomic commits,
// events.jsonl, status.json rewrites and the report merge.  Each op is a
// fresh campaign interrupted after half its shards, resumed to completion
// and reported, so it runs both the write path and the resume scan.  The
// only workload that runs the faults layer.
class CampaignSweep final : public Workload {
 public:
  explicit CampaignSweep(const Options& options)
      : options_(options),
        dir_((fs::path(options.work_dir) / "campaign").string()) {}

  double setup() override {
    const std::string reference_dir = dir_ + "-reference";
    fs::remove_all(reference_dir);
    const Clock::time_point t0 = Clock::now();
    spec_ = campaign::CampaignSpec::parse(specJson());
    shards_ = spec_.expandShards();
    expand_ms_.push_back(msSince(t0));
    const campaign::CampaignOutcome outcome =
        campaign::runCampaign(spec_, campaignOptions(reference_dir, 0));
    reference_ = reportOf(reference_dir);
    const double seconds = secondsSince(t0);
    if (!outcome.fullCoverage() || outcome.quarantined != 0 ||
        outcome.failed_attempts != 0) {
      setup_failures.push_back(
          "campaign_sweep: reference run incomplete (" +
          std::to_string(outcome.completed()) + "/" +
          std::to_string(outcome.shards_total) + " shards, " +
          std::to_string(outcome.failed_attempts) + " failed attempts)");
    }
    node_rounds_ = nodeRounds(reference_);
    facts["trials_done_fraction"] = doneFraction(reference_);
    if (facts["trials_done_fraction"] != 1.0) {
      setup_failures.push_back(
          "campaign_sweep: a trial of the reference run stopped at its round "
          "budget before its protocol finished");
    }
    fs::remove_all(reference_dir);
    return seconds;
  }

  OpResult op(std::uint64_t i, Tracing* tracing) override {
    fs::remove_all(dir_);
    const int half = static_cast<int>(shards_.size() / 2);
    Clock::time_point t0 = Clock::now();
    const campaign::CampaignOutcome partial =
        campaign::runCampaign(spec_, campaignOptions(dir_, half));
    const double partial_ms = msSince(t0);
    if (tracing != nullptr) {
      absorbProfile();
    }
    t0 = Clock::now();
    const campaign::CampaignOutcome resumed =
        campaign::runCampaign(spec_, campaignOptions(dir_, 0));
    const double resume_ms = msSince(t0);
    if (tracing != nullptr) {
      absorbProfile();
      events_bytes_ +=
          static_cast<double>(fs::file_size(fs::path(dir_) / "events.jsonl"));
      events_shards_ += static_cast<double>(shards_.size());
    }
    t0 = Clock::now();
    const std::string report = reportOf(dir_);
    const double report_ms = msSince(t0);

    OpResult r;
    r.ms = partial_ms + resume_ms + report_ms;
    r.node_rounds = node_rounds_;
    r.digest = campaign::fnv1a64(report);
    std::ostringstream why;
    // The limit stops the workers once `half` shards committed; a second
    // worker may still commit the shard it was running.
    if (!partial.stopped_early ||
        partial.completed_new < static_cast<std::size_t>(half)) {
      why << "interrupted run committed " << partial.completed_new
          << " shards, expected at least " << half << " of "
          << partial.shards_total;
    } else if (!resumed.fullCoverage() ||
               resumed.completed_prior != partial.completed_new) {
      why << "resume covered " << resumed.completed() << "/"
          << resumed.shards_total << " shards";
    } else if (partial.quarantined + resumed.quarantined != 0 ||
               partial.failed_attempts + resumed.failed_attempts != 0) {
      why << "quarantined or failed shard attempts";
    } else if (report != reference_) {
      why << "report differs from the uninterrupted reference";
    }
    if (!why.str().empty()) {
      r.failure = "campaign_sweep op " + std::to_string(i) + ": " + why.str();
    }
    if (tracing != nullptr) {
      partial_ms_.push_back(partial_ms);
      resume_ms_.push_back(resume_ms);
      report_ms_.push_back(report_ms);
      for (std::uint64_t j = 0; j < kReplaysPerOp; ++j) {
        replayShard(shards_[(i * kReplaysPerOp + j) % shards_.size()],
                    *tracing);
      }
    }
    fs::remove_all(dir_);
    return r;
  }

  std::uint64_t passLength() const override { return 1; }

  void layerMetrics(std::map<std::string, double>& out) const override {
    const double busy_us = run_us_ * kWorkers;
    out["campaign.expand_ms"] = quantile(expand_ms_, 0.5);
    out["campaign.partial_ms_p50"] = quantile(partial_ms_, 0.5);
    out["campaign.resume_ms_p50"] = quantile(resume_ms_, 0.5);
    out["campaign.report_ms_p50"] = quantile(report_ms_, 0.5);
    out["campaign.execute_share"] = ratio(execute_us_, busy_us);
    out["campaign.commit_share"] = ratio(commit_us_, busy_us);
    out["campaign.commit_us_p50"] =
        bucketQuantile(bounds_, commit_counts_, 0.5);
    out["campaign.queue_wait_ms_p50"] =
        bucketQuantile(bounds_, queue_wait_counts_, 0.5) / 1e3;
    out["campaign.events_bytes_per_shard"] =
        ratio(events_bytes_, events_shards_);
    out["faults.drop_fraction"] = ratio(dropped_, deliveries_);
  }

 private:
  static constexpr unsigned kWorkers = 2;
  static constexpr std::uint64_t kReplaysPerOp = 8;
  // Two trials per shard halve the fsync'd commits per trial, so the shared
  // disk's latency is a smaller share of each op.
  static constexpr int kTrialsPerShard = 2;

  std::string specJson() const {
    // Spec numbers travel as JSON doubles: keep the base seed below 2^53.
    const std::uint64_t base = opSeed(options_, 0x63616d70ULL) >> 12;
    std::ostringstream spec;
    spec << R"({"name": "benchmark-sweep",)"
         << R"( "protocols": ["count", "leader_known_d", "diam_2approx"],)";
    if (options_.smoke) {
      spec << R"( "adversaries": ["random_tree", "static_ring"], "nodes": [16],)";
    } else {
      spec << R"( "adversaries": ["random_tree", "edge_churn", "shuffle_path", "static_ring"],)"
           << R"( "nodes": [16, 24],)";
    }
    spec << R"( "seeds": {"base": )" << base << R"(, "count": )"
         << kTrialsPerShard << R"(, "per_shard": )" << kTrialsPerShard
         << "},";
    // Every protocol here runs a fixed schedule, so the work of an op does
    // not depend on the seed; every trial runs to completion (the gate).
    // k = 16 coordinates cut counting's schedule to under 2000 rounds, so
    // shards stay small and scheduler and store costs are a large share of
    // each op.  The early-stopping protocols are left out: every cell of a
    // seed block shares one trial seed, so hear_from_n's node-rounds per op
    // varied 2.8x across seeds and LEADERELECT's phase count moved all its
    // cells at once (leader_dynamic covers the unknown-D protocol).
    spec << R"( "k": 16,)"
         << R"( "faults": [{"name": "clean"}, {"name": "drop", "drop_prob": 0.05}]})";
    return spec.str();
  }

  std::string reportOf(const std::string& dir) const {
    std::ostringstream out;
    campaign::writeReport(spec_, campaign::CheckpointStore(dir), out);
    return out.str();
  }

  campaign::CampaignOptions campaignOptions(const std::string& dir,
                                            int shard_limit) const {
    campaign::CampaignOptions options;
    options.checkpoint_dir = dir;
    options.workers = kWorkers;
    options.shard_limit = shard_limit;
    return options;
  }

  // The share of the report's trials whose protocol finished.
  static double doneFraction(const std::string& report) {
    const obs::Json json = obs::Json::parse(report);
    const std::vector<obs::Json>& done =
        json.at("series").at("trial/all_done").items();
    double finished = 0;
    for (const obs::Json& d : done) {
      finished += d.number();
    }
    return ratio(finished, static_cast<double>(done.size()));
  }

  // Σ n · rounds over the report's trials, which come in expansion order,
  // shard.trials per shard; a trial that never finished ran to max_rounds.
  double nodeRounds(const std::string& report) const {
    const obs::Json json = obs::Json::parse(report);
    const std::vector<obs::Json>& rounds =
        json.at("series").at("trial/rounds").items();
    double total = 0;
    std::size_t t = 0;
    for (const campaign::ShardConfig& shard : shards_) {
      for (int k = 0; k < shard.trials; ++k, ++t) {
        DYNET_CHECK(t < rounds.size()) << "report lists too few trials";
        const double r = rounds[t].number();
        total += static_cast<double>(shard.n) *
                 (r >= 0 ? r : static_cast<double>(shard.max_rounds));
      }
    }
    DYNET_CHECK(t == rounds.size()) << "report lists too many trials";
    return total;
  }

  // Folds the scheduler_profile.json a campaign run just wrote.
  void absorbProfile() {
    std::ifstream in(fs::path(dir_) / "scheduler_profile.json");
    std::stringstream text;
    text << in.rdbuf();
    const obs::Json profile = obs::Json::parse(text.str());
    const auto counter = [&](const char* name) {
      const obs::Json& counters = profile.at("counters");
      return counters.has(name) ? counters.at(name).number() : 0.0;
    };
    run_us_ += counter("campaign//run/total_us");
    execute_us_ += counter("campaign//execute/total_us");
    commit_us_ += counter("campaign//commit/total_us");
    const auto histogram = [&](const char* name, std::vector<double>& sum) {
      const obs::Json& histograms = profile.at("histograms");
      if (!histograms.has(name)) {
        return;
      }
      const obs::Json& h = histograms.at(name);
      if (bounds_.empty()) {
        for (const obs::Json& b : h.at("bounds").items()) {
          bounds_.push_back(b.number());
        }
      }
      const std::vector<obs::Json>& counts = h.at("counts").items();
      sum.resize(counts.size(), 0.0);
      for (std::size_t b = 0; b < counts.size(); ++b) {
        sum[b] += counts[b].number();
      }
    };
    histogram("campaign//commit/us", commit_counts_);
    histogram("campaign//queue_wait/us", queue_wait_counts_);
  }

  // Re-runs one shard's first trial outside the campaign, the way
  // campaign::runShard builds it, so the traced run can attribute the
  // sweep's engine time to round phases (runShard takes no sink).  Faulty
  // shards run a second, recorded time to count attempted deliveries.
  void replayShard(const campaign::ShardConfig& shard, Tracing& tracing) {
    const std::uint64_t seed = util::hashCombine(shard.seed_base, 0);
    const bool faulty =
        !faults::FaultPlan(shard.n, shard.fault.config, 0).zero();
    const bool duplex = shard.protocol.rfind("diam_", 0) == 0;
    const auto make = [&] {
      EngineSpec spec;
      spec.factory = campaign::makeProtocolFactory(shard, seed);
      spec.adversary = campaign::makeAdversary(shard, seed);
      spec.config.max_rounds = shard.max_rounds;
      spec.config.duplex = duplex;
      spec.seed = seed;
      if (faulty) {
        spec.injector = std::make_shared<const faults::FaultInjector>(
            faults::FaultPlan(shard.n, shard.fault.config,
                              util::hashCombine(seed, 0xFA)),
            spec.factory.get());
      }
      return spec;
    };
    runEngine(make, &tracing.ledger, tracing.takeChromeTracePath());
    if (!faulty) {
      return;
    }
    EngineSpec spec = make();
    spec.config.record_topologies = true;
    spec.config.record_actions = true;
    sim::Engine engine(*spec.factory, std::move(spec.adversary), spec.config,
                       spec.seed);
    engine.setFaultInjector(spec.injector);
    const sim::RunResult& result = engine.run();
    for (std::size_t r = 0; r < engine.topologies().size(); ++r) {
      const net::Graph& g = *engine.topologies()[r];
      const std::vector<sim::Action>& actions = engine.actionTrace()[r];
      for (sim::NodeId v = 0; v < g.numNodes(); ++v) {
        if (actions[static_cast<std::size_t>(v)].send && !duplex) {
          continue;
        }
        for (const sim::NodeId u : g.neighbors(v)) {
          deliveries_ += actions[static_cast<std::size_t>(u)].send ? 1 : 0;
        }
      }
    }
    dropped_ += static_cast<double>(result.messages_dropped);
  }

  Options options_;
  std::string dir_;
  campaign::CampaignSpec spec_;
  std::vector<campaign::ShardConfig> shards_;
  std::string reference_;
  double node_rounds_ = 0;
  std::vector<double> expand_ms_;
  std::vector<double> partial_ms_;
  std::vector<double> resume_ms_;
  std::vector<double> report_ms_;
  double run_us_ = 0;
  double execute_us_ = 0;
  double commit_us_ = 0;
  std::vector<double> bounds_;
  std::vector<double> commit_counts_;
  std::vector<double> queue_wait_counts_;
  double events_bytes_ = 0;
  double events_shards_ = 0;
  double dropped_ = 0;
  double deliveries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Options& options) {
  if (name == "leader_dynamic") {
    return std::make_unique<LeaderDynamic>(options);
  }
  if (name == "flood_large") {
    return std::make_unique<FloodLarge>(options);
  }
  if (name == "trace_replay") {
    return std::make_unique<TraceReplay>(options);
  }
  if (name == "diameter_gadgets") {
    return std::make_unique<DiameterGadgets>(options);
  }
  if (name == "campaign_sweep") {
    return std::make_unique<CampaignSweep>(options);
  }
  DYNET_CHECK(false) << "unknown workload '" << name << "'";
  return nullptr;  // unreachable
}

}  // namespace dynet::bench
