// Shared helpers for the benchmark harness binaries.
#pragma once

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/shard_exec.h"
#include "net/diameter.h"
#include "obs/prof.h"
#include "obs/sink.h"
#include "sim/engine.h"

#include "util/check.h"
#include "util/cli.h"

namespace dynet::bench {

/// The --quick contract: every bench binary accepts --quick and finishes in
/// seconds under it (reduced trials / sweep points), because
/// scripts/check.sh and CI run `bench --quick` as a smoke test and treat
/// any non-zero exit as fatal.  Parse the flag through this helper so the
/// contract is greppable:
///
///   util::Cli cli(argc, argv);
///   const bool quick = bench::quickMode(cli);
///
/// then pick sizes with `quick ? small : full`.
inline bool quickMode(const util::Cli& cli) { return cli.flag("quick"); }

/// Every bench's main: runs `run` and turns a util::CheckError escaping it
/// (a bad flag such as `--workers 0`, a failed invariant) into
/// "<program>: <message>" on stderr and exit status 1, the way dynet_cli
/// and trace_to_dot report one, instead of an uncaught exception and
/// SIGABRT.
///
///   int main(int argc, char** argv) {
///     return dynet::bench::guardedMain(argc, argv, dynet::run);
///   }
inline int guardedMain(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const util::CheckError& e) {
    const std::string_view program = argc > 0 ? argv[0] : "bench";
    std::cerr << program.substr(program.rfind('/') + 1) << ": "
              << e.message() << "\n";
    return 1;
  }
}

/// The named adversary of the campaign zoo (campaign::makeAdversary, its
/// single construction path) at size n with its default knobs.
inline std::unique_ptr<sim::Adversary> makeAdversary(const std::string& name,
                                                     sim::NodeId n,
                                                     std::uint64_t seed) {
  campaign::ShardConfig shard;
  shard.adversary = name;
  shard.n = n;
  return campaign::makeAdversary(shard, seed);
}

/// Opt-in observability for bench binaries, driven by three flags:
///
///   --metrics-out=metrics.json   metric registry dump (see dynet_stats)
///   --chrome-trace=trace.json    round-phase spans for chrome://tracing
///   --trace-jsonl=events.jsonl   same spans, one JSON object per line
///
///   bench::ObsSession obs(cli);
///   ...
///   if (obs.enabled()) config.metrics = obs.sink();
///   ...
///   obs.write();  // after the instrumented run(s)
///
/// The registry is NOT thread-safe: attach the sink to ONE representative
/// engine run on the bench's main thread, never to engines executed inside
/// sim::BatchRunner bodies (unless the batch runs with
/// BatchOptions{.threads = 1}).  Sequential engines may share the sink — the
/// engine increments counters by per-round deltas, so totals aggregate;
/// per-node series are overwritten by the last run.  DYNET_PROF timers are
/// captured into the same registry while the session is alive.
class ObsSession {
 public:
  explicit ObsSession(const util::Cli& cli)
      : metrics_path_(cli.str("metrics-out", "")),
        chrome_path_(cli.str("chrome-trace", "")),
        jsonl_path_(cli.str("trace-jsonl", "")) {
    if (!chrome_path_.empty() || !jsonl_path_.empty()) {
      sink_.trace = &trace_;
    }
    if (enabled()) {
      prof_ = std::make_unique<obs::ProfScope>(&sink_.registry);
    }
  }

  bool enabled() const {
    return !metrics_path_.empty() || sink_.trace != nullptr;
  }

  /// Pass as EngineConfig::metrics for the representative run (or nullptr
  /// when the session is disabled, which keeps the engine's fast path).
  obs::MetricsSink* sink() { return enabled() ? &sink_ : nullptr; }
  obs::MetricsRegistry& registry() { return sink_.registry; }

  /// Flushes prof timers and writes whichever outputs were requested.
  void write() {
    prof_.reset();
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      DYNET_CHECK(out.good()) << "cannot open " << metrics_path_;
      sink_.registry.writeJson(out);
      std::cerr << "metrics written to " << metrics_path_ << "\n";
    }
    if (!chrome_path_.empty()) {
      std::ofstream out(chrome_path_);
      DYNET_CHECK(out.good()) << "cannot open " << chrome_path_;
      trace_.writeChromeTrace(out);
      std::cerr << "chrome trace written to " << chrome_path_ << "\n";
    }
    if (!jsonl_path_.empty()) {
      std::ofstream out(jsonl_path_);
      DYNET_CHECK(out.good()) << "cannot open " << jsonl_path_;
      trace_.writeJsonl(out);
      std::cerr << "trace events written to " << jsonl_path_ << "\n";
    }
  }

 private:
  std::string metrics_path_;
  std::string chrome_path_;
  std::string jsonl_path_;
  obs::MetricsSink sink_;
  obs::TraceWriter trace_;
  std::unique_ptr<obs::ProfScope> prof_;
};

/// Builds an engine over `factory` and `adversary` (the factory form: the
/// engine picks the SoA or object path itself).  Benches that read Process
/// members build through sim::createProcesses instead.
inline sim::Engine makeEngine(const sim::ProcessFactory& factory,
                              std::unique_ptr<sim::Adversary> adversary,
                              sim::Round max_rounds, std::uint64_t seed,
                              bool record = false) {
  sim::EngineConfig config;
  config.max_rounds = max_rounds;
  config.record_topologies = record;
  return sim::Engine(factory, std::move(adversary), config, seed);
}

/// Realized dynamic diameter of the named adversary at size n (recorded
/// over a quiet run; max over a few dozen start rounds).
inline int measuredDiameter(const std::string& name, sim::NodeId n,
                            std::uint64_t seed) {
  auto adversary = makeAdversary(name, n, seed);
  net::TopologySeq topologies;
  const sim::Round horizon = 4 * n + 32;
  std::vector<sim::Action> receiving(static_cast<std::size_t>(n));
  for (sim::Round r = 1; r <= horizon; ++r) {
    topologies.push_back(adversary->topology(r, {receiving}));
  }
  return net::dynamicDiameter(topologies, 16);
}

}  // namespace dynet::bench
