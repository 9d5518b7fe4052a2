// Trace-dataset load + replay bench: what does the compiled .dtc cache buy
// over re-parsing event-list text, and does the cached trace replay
// byte-identically?
//
// The bench generates a synthetic event-list file (dataset::randomTrace
// rendered through writeEventList), then measures
//
//   * text load   — parse + compile, cache disabled,
//   * cache load  — read the .dtc sidecar written on the first pass,
//
// and reports the speedup (the number the BENCH JSON carries; check.sh and
// CI treat it as the cache's existence proof).  It then replays the trace
// through TraceAdversary twice — once from the text parse, once from the
// cache — under both topology paths (delta-native and the reference
// rebuild-every-round leg) and FAILS unless all four runs agree on rounds,
// messages, bits, and the combined process state digest.  "The cache is
// faster" is only interesting if it is also the same trace.
//
// Honors the --quick contract of bench_common.h (CI smoke-runs this) and
// writes BENCH_trace_replay.json (--json-out=PATH to override).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "adversary/trace_adversary.h"
#include "bench_common.h"
#include "campaign/spec.h"
#include "dataset/compiled_format.h"
#include "dataset/text_format.h"
#include "dataset/trace.h"
#include "protocols/flood.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace dynet {
namespace {

double secondsSince(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ReplayDigest {
  sim::Round rounds = 0;
  bool all_done = false;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t digest = 0;

  friend bool operator==(const ReplayDigest&, const ReplayDigest&) = default;
};

ReplayDigest replay(std::shared_ptr<const dataset::CompiledTrace> trace,
                    sim::Round max_rounds, std::uint64_t seed,
                    bool deltas) {
  const proto::FloodFactory factory(0, 0x2a, 8, proto::FloodMode::kDeterministic,
                                    0);
  adv::TraceReplayOptions options;  // wrap + spine defaults
  std::unique_ptr<sim::Adversary> adversary =
      std::make_unique<adv::TraceAdversary>(trace, options);
  if (!deltas) {
    adversary = std::make_unique<sim::RebuildEveryRound>(std::move(adversary));
  }
  sim::EngineConfig config;
  config.max_rounds = max_rounds;
  sim::Engine engine(factory, std::move(adversary), config, seed);
  const sim::RunResult& r = engine.run();
  ReplayDigest out;
  out.rounds = r.rounds_executed;
  out.all_done = r.all_done;
  out.messages = r.messages_sent;
  out.bits = r.bits_sent;
  out.digest = 0x7261636544696765ULL;
  for (sim::NodeId v = 0; v < trace->num_nodes; ++v) {
    out.digest = util::hashCombine(out.digest, engine.stateDigest(v));
  }
  return out;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = bench::quickMode(cli);
  const sim::NodeId n = cli.intFlag("nodes", quick ? 64 : 256, 2);
  const sim::Round rounds = cli.intFlag("rounds", quick ? 256 : 4096, 1);
  const int churn = cli.intFlag("churn", 4, 0);
  const int reps = cli.intFlag("reps", quick ? 3 : 10, 1);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const std::string json_path =
      cli.str("json-out", "BENCH_trace_replay.json");
  cli.rejectUnknown();

  // Synthesize the dataset on disk: a text event list is the substrate the
  // cache is measured against.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "bench_trace_replay";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string events_path = (dir / "trace.events").string();
  const dataset::CompiledTrace generated =
      dataset::randomTrace(n, rounds, churn, seed);
  {
    std::ofstream out(events_path);
    DYNET_CHECK(out.good()) << "cannot open " << events_path;
    dataset::writeEventList(out, generated);
  }
  const auto source_bytes = std::filesystem::file_size(events_path);

  // Text loads: parse + compile every time, no sidecar involvement.
  dataset::LoadOptions text_only;
  text_only.use_cache = false;
  text_only.write_cache = false;
  const auto t_text = std::chrono::steady_clock::now();
  std::shared_ptr<const dataset::CompiledTrace> from_text;
  for (int i = 0; i < reps; ++i) {
    const dataset::LoadedTrace loaded =
        dataset::loadTrace(events_path, text_only);
    DYNET_CHECK(!loaded.from_cache) << "text-only load hit a cache";
    from_text = loaded.trace;
  }
  const double text_seconds = secondsSince(t_text) / reps;

  // Prime the sidecar, then measure pure cache loads.
  {
    const dataset::LoadedTrace primed = dataset::loadTrace(events_path);
    DYNET_CHECK(!primed.cache_path.empty()) << "no sidecar written";
  }
  const auto t_cache = std::chrono::steady_clock::now();
  std::shared_ptr<const dataset::CompiledTrace> from_cache;
  for (int i = 0; i < reps; ++i) {
    const dataset::LoadedTrace loaded = dataset::loadTrace(events_path);
    DYNET_CHECK(loaded.from_cache)
        << "cache load fell back to text parsing";
    from_cache = loaded.trace;
  }
  const double cache_seconds = secondsSince(t_cache) / reps;
  const double speedup =
      cache_seconds > 0 ? text_seconds / cache_seconds : 0.0;

  DYNET_CHECK(*from_text == *from_cache)
      << "cache round-trip changed the compiled trace";

  // Replay equality: text vs cache, across both topology paths.
  const sim::Round max_rounds = 4 * static_cast<sim::Round>(n) + 64;
  const ReplayDigest text_fast =
      replay(from_text, max_rounds, seed, /*deltas=*/true);
  const ReplayDigest cache_fast =
      replay(from_cache, max_rounds, seed, /*deltas=*/true);
  const ReplayDigest text_rebuild =
      replay(from_text, max_rounds, seed, /*deltas=*/false);
  const ReplayDigest cache_rebuild =
      replay(from_cache, max_rounds, seed, /*deltas=*/false);
  DYNET_CHECK(text_fast == cache_fast)
      << "cache replay diverged from text replay (delta path)";
  DYNET_CHECK(text_rebuild == cache_rebuild)
      << "cache replay diverged from text replay (rebuild path)";
  DYNET_CHECK(text_fast == text_rebuild)
      << "topology paths diverged on the same trace";

  const dataset::TraceSummary summary = dataset::summarize(*from_cache);
  util::Table table({"metric", "value"});
  table.row().cell("nodes").cell(static_cast<std::int64_t>(n));
  table.row().cell("trace rounds").cell(static_cast<std::int64_t>(rounds));
  table.row().cell("source bytes").cell(
      static_cast<std::int64_t>(source_bytes));
  table.row().cell("delta records").cell(
      static_cast<std::int64_t>(summary.delta_records));
  table.row().cell("text load (ms)").cell(text_seconds * 1e3, 3);
  table.row().cell("cache load (ms)").cell(cache_seconds * 1e3, 3);
  table.row().cell("cache speedup").cell(speedup, 2);
  table.row().cell("replay rounds").cell(
      static_cast<std::int64_t>(text_fast.rounds));
  table.row().cell("replay messages").cell(text_fast.messages);
  std::cout << table.toString();

  std::ofstream json(json_path);
  DYNET_CHECK(json.good()) << "cannot open " << json_path;
  json << "{\n  \"bench\": \"trace_replay\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"nodes\": " << n << ",\n  \"trace_rounds\": " << rounds << ",\n"
       << "  \"source_bytes\": " << source_bytes << ",\n"
       << "  \"delta_records\": " << summary.delta_records << ",\n"
       << "  \"text_load_ms\": " << text_seconds * 1e3 << ",\n"
       << "  \"cache_load_ms\": " << cache_seconds * 1e3 << ",\n"
       << "  \"cache_speedup\": " << speedup << ",\n"
       << "  \"replay\": {\"rounds\": " << text_fast.rounds
       << ", \"all_done\": " << (text_fast.all_done ? "true" : "false")
       << ", \"messages\": " << text_fast.messages
       << ", \"bits\": " << text_fast.bits << ", \"digest\": \""
       << campaign::hashHex(text_fast.digest) << "\"}\n}\n";
  std::cout << "results written to " << json_path << "\n";
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
