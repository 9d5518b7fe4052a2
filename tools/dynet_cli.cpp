// dynet_cli — run any bundled protocol against any bundled adversary from
// the command line; print metrics and (optionally) dump the full trace plus
// observability artifacts.  Also the front end for crash-safe campaigns.
//
//   $ dynet_cli --protocol leader_unknown_d --adversary random_tree
//               --nodes 64 --seed 7 [--trace out.trace] [--max-rounds M]
//               [--metrics-out metrics.json] [--chrome-trace trace.json]
//               [--trace-jsonl events.jsonl]
//
//   $ dynet_cli --campaign spec.json --checkpoint dir [--workers N]
//               [--isolation inprocess|subprocess] [--report out.json]
//               [--shard-limit N] [--retry-quarantined] [--verbose]
//   $ dynet_cli --campaign-report dir          # re-merge + summarize
//   $ dynet_cli --campaign-status dir          # fold events.jsonl once
//   $ dynet_cli --campaign-watch dir [--interval-ms N]   # poll until done
//   $ dynet_cli --worker                       # internal: shard worker loop
//
//   $ dynet_cli --trace-info data.events [--trace-bucket W] [--no-trace-cache]
//   $ dynet_cli --trace-compile data.events [--out data.dtc]
//   $ dynet_cli --protocol flood --adversary trace --trace-path data.events
//               [--trace-policy wrap|clamp|mirror] [--trace-offset-seeded]
//               [--no-trace-spine] [--trace-bucket W] [--anonymous]
//
//   $ dynet_cli --protocol diam_exact --adversary ach_gadget --nodes 64
//               [--gadget-width W] [--stretch S] [--gadget-intersect]
//
// Trace datasets (event lists, snapshot dirs, compiled .dtc caches) are
// documented in docs/DATASETS.md; --trace-info prints a density summary
// without running anything, --trace-compile writes the binary cache.
//
// `--list` prints the valid protocol/adversary names; an unknown name does
// the same and exits non-zero.  --metrics-out writes the metric catalog of
// docs/OBSERVABILITY.md (summarize or diff it with dynet_stats);
// --chrome-trace writes round-phase spans loadable in chrome://tracing /
// Perfetto; --trace-jsonl the same events one-per-line.  Campaign modes are
// documented in docs/CAMPAIGNS.md: exit 0 = full coverage, 3 = incomplete
// (stopped early or shards quarantined), 1 = hard error.
#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "campaign/scheduler.h"
#include "campaign/shard_exec.h"
#include "campaign/spec.h"
#include "campaign/telemetry.h"
#include "campaign/worker.h"
#include "dataset/compiled_format.h"
#include "net/churn.h"
#include "net/diameter.h"
#include "obs/prof.h"
#include "obs/sink.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

/// --trace-bucket, in the range the shard-config reader takes.
double traceBucket(const util::Cli& cli) {
  return cli.real("trace-bucket", 1.0, 0, std::numeric_limits<double>::max(),
                  /*open_lo=*/true);
}

void printNameList(std::ostream& out, const std::string& label,
                   const std::vector<std::string>& names) {
  out << label << ":";
  for (const std::string& name : names) {
    out << " " << name;
  }
  out << "\n";
}

[[noreturn]] void failUnknown(const std::string& kind, const std::string& name,
                              const std::vector<std::string>& valid) {
  std::cerr << "unknown " << kind << " '" << name << "'\n";
  printNameList(std::cerr, "valid " + kind + " names", valid);
  std::exit(2);
}

/// Path to this binary (worker_cmd default for subprocess campaigns).
std::string selfExecutable() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  DYNET_CHECK(n > 0) << "cannot resolve /proc/self/exe";
  return std::string(buf, static_cast<std::size_t>(n));
}

void printCampaignSummary(const campaign::CampaignOutcome& outcome,
                          const std::string& checkpoint_dir) {
  util::Table table({"metric", "value"});
  table.row().cell("shards total").cell(
      static_cast<std::int64_t>(outcome.shards_total));
  table.row().cell("completed (prior)").cell(
      static_cast<std::int64_t>(outcome.completed_prior));
  table.row().cell("completed (new)").cell(
      static_cast<std::int64_t>(outcome.completed_new));
  table.row().cell("quarantined").cell(
      static_cast<std::int64_t>(outcome.quarantined));
  table.row().cell("failed attempts").cell(
      static_cast<std::int64_t>(outcome.failed_attempts));
  table.row().cell("coverage").cell(
      outcome.shards_total == 0
          ? 1.0
          : static_cast<double>(outcome.completed()) /
                static_cast<double>(outcome.shards_total),
      4);
  table.row().cell("stopped early").cell(outcome.stopped_early ? "yes" : "no");
  std::cout << table.toString();
  std::cout << "report written to " << checkpoint_dir << "/report.json\n";
}

/// Renders the status folded from `dir`/events.jsonl.  Returns 0 when the
/// campaign is running or finished with full coverage, 3 when it finished
/// incomplete, 1 when there is no event stream to read.  `running_out`
/// (optional) reports whether the campaign was still running.
int renderCampaignStatus(const std::string& dir, bool* running_out) {
  if (running_out != nullptr) {
    *running_out = false;
  }
  std::ifstream in(dir + "/events.jsonl");
  const std::optional<campaign::CampaignStatus> folded =
      in.good() ? campaign::foldEvents(in).status : std::nullopt;
  if (!folded) {
    std::cerr << "no campaign events in " << dir
              << "/events.jsonl (campaign never started there)\n";
    return 1;
  }
  const campaign::CampaignStatus& s = *folded;
  util::Table table({"field", "value"});
  table.row().cell("campaign").cell(s.campaign);
  table.row().cell("name").cell(s.name);
  table.row().cell("state").cell(s.state);
  table.row().cell("done").cell(s.done);
  table.row().cell("shards total").cell(s.shards_total);
  table.row().cell("running").cell(s.running);
  table.row().cell("retrying").cell(s.retrying);
  table.row().cell("pending").cell(s.pending);
  table.row().cell("quarantined").cell(s.quarantined);
  table.row().cell("failed attempts").cell(s.failed_attempts);
  table.row().cell("trials done").cell(s.trials_done);
  // Rates over the wall-clock span of this run's records.
  const double elapsed_s =
      static_cast<double>(s.updated_ms - s.started_ms) / 1000.0;
  const std::size_t done_new =
      s.done > s.completed_prior ? s.done - s.completed_prior : 0;
  if (elapsed_s > 0 && done_new > 0) {
    const double shards_per_sec = static_cast<double>(done_new) / elapsed_s;
    table.row().cell("shards/sec").cell(shards_per_sec, 3);
    table.row().cell("trials/sec").cell(
        static_cast<double>(s.trials_done) / elapsed_s, 3);
    const std::size_t terminal = s.done + s.quarantined;
    if (s.state == "running" && s.shards_total > terminal) {
      table.row().cell("eta (s)").cell(
          static_cast<double>(s.shards_total - terminal) / shards_per_sec, 1);
    }
  }
  std::cout << table.toString();
  if (!s.attention.empty()) {
    util::Table shards({"shard", "state", "attempts", "last error"});
    for (const auto& [hash, shard] : s.attention) {
      shards.row()
          .cell(hash)
          .cell(shard.state)
          .cell(shard.attempts)
          .cell(shard.last_error);
    }
    std::cout << "shards needing attention:\n" << shards.toString();
  }
  const bool running = s.state == "running";
  if (running_out != nullptr) {
    *running_out = running;
  }
  return running || s.done == s.shards_total ? 0 : 3;
}

int runCampaignStatusMode(const std::string& dir, bool watch,
                          int interval_ms) {
  if (!watch) {
    return renderCampaignStatus(dir, nullptr);
  }
  for (;;) {
    bool running = false;
    const int code = renderCampaignStatus(dir, &running);
    if (code != 1 && !running) {
      return code;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    std::cout << "---\n";
  }
}

int runTraceInfoMode(util::Cli& cli, const std::string& path) {
  dataset::LoadOptions options;
  options.bucket = traceBucket(cli);
  options.use_cache = !cli.flag("no-trace-cache");
  options.write_cache = options.use_cache;
  cli.rejectUnknown();
  const dataset::LoadedTrace loaded = dataset::loadTrace(path, options);
  const dataset::CompiledTrace& trace = *loaded.trace;
  const dataset::TraceSummary s = dataset::summarize(trace);
  util::Table table({"field", "value"});
  table.row().cell("source").cell(path);
  table.row().cell("loaded from").cell(loaded.from_cache ? "compiled cache"
                                                         : "text parse");
  table.row().cell("nodes").cell(static_cast<std::int64_t>(s.num_nodes));
  table.row().cell("rounds").cell(static_cast<std::int64_t>(s.rounds));
  table.row().cell("labeled ids").cell(trace.labels.empty() ? "no" : "yes");
  table.row().cell("initial edges").cell(
      static_cast<std::int64_t>(s.initial_edges));
  table.row().cell("delta records").cell(
      static_cast<std::int64_t>(s.delta_records));
  table.row().cell("min edges").cell(static_cast<std::int64_t>(s.min_edges));
  table.row().cell("max edges").cell(static_cast<std::int64_t>(s.max_edges));
  table.row().cell("mean edges").cell(s.mean_edges, 2);
  table.row().cell("bucket").cell(trace.bucket, 3);
  table.row().cell("source hash").cell(campaign::hashHex(trace.source_hash));
  table.row().cell("content hash").cell(
      campaign::hashHex(dataset::contentHash(trace)));
  std::cout << table.toString();
  return 0;
}

int runTraceCompileMode(util::Cli& cli, const std::string& path) {
  const std::string out_path = cli.str("out", path + ".dtc");
  dataset::LoadOptions options;
  options.bucket = traceBucket(cli);
  // Always recompile from the source; --trace-compile exists to (re)write
  // the cache, so trusting an existing sidecar would defeat the point.
  options.use_cache = false;
  options.write_cache = false;
  cli.rejectUnknown();
  const dataset::LoadedTrace loaded = dataset::loadTrace(path, options);
  dataset::writeCompiledFile(out_path, *loaded.trace);
  std::cout << "compiled trace written to " << out_path << " ("
            << loaded.trace->num_nodes << " node(s), " << loaded.trace->rounds
            << " round(s), content hash "
            << campaign::hashHex(dataset::contentHash(*loaded.trace)) << ")\n";
  return 0;
}

int runCampaignMode(util::Cli& cli, const std::string& spec_path) {
  campaign::CampaignOptions options;
  options.checkpoint_dir = cli.str("checkpoint", "");
  DYNET_CHECK(!options.checkpoint_dir.empty())
      << "--campaign requires --checkpoint <dir>";
  // DYNET_THREADS has the same bound.
  options.workers =
      static_cast<unsigned>(cli.integer("workers", 1, 1, 4096));
  const std::string isolation = cli.str("isolation", "inprocess");
  DYNET_CHECK(isolation == "inprocess" || isolation == "subprocess")
      << "--isolation must be 'inprocess' or 'subprocess', got '" << isolation
      << "'";
  options.subprocess = isolation == "subprocess";
  options.worker_cmd = cli.str("worker-cmd", "");
  if (options.subprocess && options.worker_cmd.empty()) {
    options.worker_cmd = selfExecutable();
  }
  options.shard_limit = cli.intFlag("shard-limit", 0, 0);
  options.retry_quarantined = cli.flag("retry-quarantined");
  options.verbose = cli.flag("verbose");
  const std::string report_path = cli.str("report", "");
  cli.rejectUnknown();

  const campaign::CampaignSpec spec = campaign::CampaignSpec::load(spec_path);
  const campaign::CampaignOutcome outcome =
      campaign::runCampaign(spec, options);
  if (!report_path.empty()) {
    // A copy of the report.json runCampaign just wrote.
    const std::optional<std::string> report =
        campaign::CheckpointStore(options.checkpoint_dir)
            .readFile("report.json");
    DYNET_CHECK(report) << "no report.json in " << options.checkpoint_dir;
    std::ofstream out(report_path);
    DYNET_CHECK(out.good()) << "cannot open " << report_path;
    out << *report;
  }
  printCampaignSummary(outcome, options.checkpoint_dir);
  return outcome.fullCoverage() ? 0 : 3;
}

int runCampaignReportMode(util::Cli& cli, const std::string& checkpoint_dir) {
  const std::string spec_path = cli.str("spec", "");
  const std::string report_path = cli.str("report", "");
  cli.rejectUnknown();
  // The user-facing spec isn't stored in the checkpoint (only the shard-hash
  // identity is), so re-merging needs the original spec file.
  DYNET_CHECK(!spec_path.empty())
      << "--campaign-report requires --spec <spec.json>";
  const campaign::CampaignSpec spec = campaign::CampaignSpec::load(spec_path);
  campaign::CheckpointStore store(checkpoint_dir);
  std::ostringstream report;
  const campaign::ReportInfo info = campaign::writeReport(spec, store, report);
  store.writeFile("report.json", report.str());
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    DYNET_CHECK(out.good()) << "cannot open " << report_path;
    out << report.str();
  }
  util::Table table({"metric", "value"});
  table.row().cell("shards total").cell(
      static_cast<std::int64_t>(info.shards_total));
  table.row().cell("shards covered").cell(
      static_cast<std::int64_t>(info.shards_covered));
  table.row().cell("shards quarantined").cell(
      static_cast<std::int64_t>(info.shards_quarantined));
  table.row().cell("trials").cell(static_cast<std::int64_t>(info.trials));
  std::cout << table.toString();
  std::cout << "report written to " << checkpoint_dir << "/report.json\n";
  return info.shards_covered == info.shards_total ? 0 : 3;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  if (cli.flag("worker")) {
    cli.rejectUnknown();
    return campaign::workerMain(std::cin, std::cout);
  }
  if (cli.has("trace-info")) {
    return runTraceInfoMode(cli, cli.str("trace-info", ""));
  }
  if (cli.has("trace-compile")) {
    return runTraceCompileMode(cli, cli.str("trace-compile", ""));
  }
  if (cli.has("campaign")) {
    return runCampaignMode(cli, cli.str("campaign", ""));
  }
  if (cli.has("campaign-report")) {
    return runCampaignReportMode(cli, cli.str("campaign-report", ""));
  }
  if (cli.has("campaign-status")) {
    const std::string dir = cli.str("campaign-status", "");
    cli.rejectUnknown();
    return runCampaignStatusMode(dir, /*watch=*/false, 0);
  }
  if (cli.has("campaign-watch")) {
    const std::string dir = cli.str("campaign-watch", "");
    const int interval_ms = cli.intFlag("interval-ms", 1000, 1);
    cli.rejectUnknown();
    return runCampaignStatusMode(dir, /*watch=*/true, interval_ms);
  }
  if (cli.flag("list")) {
    printNameList(std::cout, "protocols", campaign::protocolNames());
    printNameList(std::cout, "adversaries", campaign::adversaryNames());
    return 0;
  }

  // Single-run mode: build the run as a one-off shard config so the CLI and
  // the campaign layer share one construction path for the zoo.
  campaign::ShardConfig shard;
  shard.protocol = cli.str("protocol", "leader_unknown_d");
  shard.adversary = cli.str("adversary", "random_tree");
  // Each knob takes the range the shard-config reader takes.
  shard.n = cli.intFlag("nodes", 64, 2);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 1));
  shard.diameter = cli.intFlag("diameter", 8);
  shard.k = cli.intFlag("k", 0);
  shard.p = cli.real("p", 0, 0, 1);
  shard.interval = cli.intFlag("interval", 8);
  shard.churn = cli.intFlag("churn", 2);
  shard.n_estimate =
      cli.real("n-estimate", 0, 0, std::numeric_limits<double>::max());
  DYNET_CHECK(shard.n_estimate == 0 || shard.n_estimate >= 1)
      << "--n-estimate=" << shard.n_estimate
      << " is neither 0 (the 1.1 n default) nor at least 1";
  shard.c = cli.real("c", 0.25, 0, 1.0 / 3.0, /*open_lo=*/true);
  shard.max_rounds = cli.intFlag("max-rounds", 20'000'000, 1);
  // Dataset replay knobs (--trace is taken by the simulation-trace dump, so
  // the dataset path flag is --trace-path).
  shard.trace = cli.str("trace-path", "");
  shard.trace_policy = cli.str("trace-policy", "wrap");
  shard.trace_offset = cli.flag("trace-offset-seeded");
  shard.trace_spine = !cli.flag("no-trace-spine");
  shard.trace_bucket = traceBucket(cli);
  shard.anonymous = cli.flag("anonymous");
  // Distance-hardness gadget knobs (--adversary ach_gadget | bk_gadget).
  shard.gadget_width = cli.intFlag("gadget-width", 0, 0);
  shard.stretch = cli.intFlag("stretch", 0, 0);
  shard.gadget_intersect = cli.flag("gadget-intersect");
  const std::string trace_path = cli.str("trace", "");
  const std::string metrics_path = cli.str("metrics-out", "");
  const std::string chrome_path = cli.str("chrome-trace", "");
  const std::string jsonl_path = cli.str("trace-jsonl", "");

  bool known = false;
  for (const std::string& name : campaign::protocolNames()) {
    known = known || name == shard.protocol;
  }
  if (!known) {
    failUnknown("protocol", shard.protocol, campaign::protocolNames());
  }
  known = false;
  for (const std::string& name : campaign::adversaryNames()) {
    known = known || name == shard.adversary;
  }
  if (!known) {
    failUnknown("adversary", shard.adversary, campaign::adversaryNames());
  }
  if (shard.adversary == "trace") {
    DYNET_CHECK(!shard.trace.empty())
        << "--adversary trace requires --trace-path <dataset>";
    if (!cli.has("nodes")) {
      // Convenience: adopt the dataset's node count (memoized load, so
      // makeAdversary below reuses the same parse).
      shard.n = dataset::loadTraceShared(shard.trace,
                                         {.bucket = shard.trace_bucket})
                    ->num_nodes;
    }
  } else {
    DYNET_CHECK(shard.trace.empty())
        << "--trace-path only applies to --adversary trace (got '"
        << shard.adversary << "')";
  }

  // Observability plumbing: one sink for engine metrics and DYNET_PROF
  // timers, one trace writer shared by the Chrome/JSONL outputs.
  const bool want_metrics = !metrics_path.empty();
  const bool want_spans = !chrome_path.empty() || !jsonl_path.empty();
  obs::TraceWriter trace_writer;
  obs::MetricsSink sink;
  std::unique_ptr<obs::ProfScope> prof;
  std::unique_ptr<sim::ProcessFactory> factory;
  std::optional<sim::Engine> engine;
  sim::RunResult result;
  // Building and running allocate per node, past every range check: a node
  // count too large for memory is an error naming the flag, not a crash.
  try {
    factory = campaign::makeProtocolFactory(shard, seed);
    auto adversary = campaign::makeAdversary(shard, seed);
    cli.rejectUnknown();
    if (want_spans) {
      sink.trace = &trace_writer;
    }
    if (want_metrics) {
      prof = std::make_unique<obs::ProfScope>(&sink.registry);
    }
    sim::EngineConfig config = campaign::makeEngineConfig(shard);
    config.record_topologies = true;
    config.record_actions = !trace_path.empty();
    if (want_metrics || want_spans) {
      config.metrics = &sink;
    }
    engine.emplace(*factory, std::move(adversary), config, seed);
    result = engine->run();
  } catch (const std::bad_alloc&) {
    DYNET_CHECK(false) << "--nodes=" << shard.n
                       << ": out of memory building or running the run";
  }

  const sim::NodeId n = shard.n;
  util::Table table({"metric", "value"});
  table.row().cell("protocol").cell(shard.protocol);
  table.row().cell("adversary").cell(shard.adversary);
  table.row().cell("nodes").cell(static_cast<std::int64_t>(n));
  table.row().cell("all done").cell(result.all_done ? "yes" : "no");
  table.row().cell("rounds").cell(static_cast<std::int64_t>(result.all_done_round));
  table.row().cell("messages").cell(result.messages_sent);
  table.row().cell("bits").cell(result.bits_sent);
  table.row().cell("max bits/node").cell(result.max_bits_per_node);
  const int max_start = std::max(
      0, std::min<int>(8, static_cast<int>(engine->topologies().size()) - n));
  const int realized = net::dynamicDiameter(engine->topologies(), max_start);
  table.row().cell("realized diameter").cell(realized);
  if (realized > 0 && result.all_done_round > 0) {
    table.row().cell("flooding rounds").cell(
        static_cast<double>(result.all_done_round) / realized, 2);
  }
  if (engine->topologies().size() >= 2) {
    table.row().cell("mean edge Jaccard").cell(
        net::meanConsecutiveJaccard(engine->topologies()), 3);
  }
  if (result.all_done && n > 0) {
    table.row().cell("output[node 0]").cell(engine->nodeOutput(0));
  }
  std::cout << table.toString();

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    DYNET_CHECK(out.good()) << "cannot open " << trace_path;
    sim::writeTrace(out, engine->trace());
    std::cout << "trace written to " << trace_path << "\n";
  }
  prof.reset();  // flush prof timers before the registry is exported
  if (want_metrics) {
    std::ofstream out(metrics_path);
    DYNET_CHECK(out.good()) << "cannot open " << metrics_path;
    sink.registry.writeJson(out);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    DYNET_CHECK(out.good()) << "cannot open " << chrome_path;
    trace_writer.writeChromeTrace(out);
    std::cout << "chrome trace written to " << chrome_path
              << " (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!jsonl_path.empty()) {
    std::ofstream out(jsonl_path);
    DYNET_CHECK(out.good()) << "cannot open " << jsonl_path;
    trace_writer.writeJsonl(out);
    std::cout << "trace events written to " << jsonl_path << "\n";
  }
  return result.all_done ? 0 : 1;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  try {
    return dynet::run(argc, argv);
  } catch (const dynet::util::CheckError& e) {
    std::cerr << "dynet_cli: " << e.what() << "\n";
    return 1;
  }
}
