// Campaign-runner overhead bench: what does the crash-safe machinery cost
// on top of raw sim::BatchRunner trials?
//
// Runs the same sweep several ways and reports wall-clock per trial:
//
//   * raw        — campaign::runShard over each shard in the calling
//                  thread, no checkpointing (the floor),
//   * inprocess  — the full scheduler: claim loop, the event stream with
//                  one fdatasync'd shard_committed record per shard, the
//                  scheduler profile and the report merge,
//   * subprocess — supervised dynet_cli --worker processes (adds spawn +
//                  JSONL round trips; needs --worker-cmd, else skipped).
//
// The interesting number is inprocess vs raw — the price of crash safety
// when nothing crashes (fixed per shard, so tiny --quick shards overstate
// the ratio).  Resume cost is shown separately: a second run over a fully
// committed checkpoint folds events.jsonl and does no simulation at all.
//
// Honors the --quick contract of bench_common.h (CI smoke-runs this).
#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "campaign/scheduler.h"
#include "campaign/shard_exec.h"
#include "campaign/spec.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

double secondsSince(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string freshDir(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(path);
  return path;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = bench::quickMode(cli);
  const unsigned workers =
      static_cast<unsigned>(cli.integer("workers", quick ? 2 : 4, 1, 4096));
  const std::string worker_cmd = cli.str("worker-cmd", "");
  cli.rejectUnknown();

  campaign::CampaignSpec spec;
  spec.protocols = {"flood", "leader_known_d"};
  spec.adversaries = {"static_path", "random_tree"};
  spec.nodes = quick ? std::vector<sim::NodeId>{16}
                     : std::vector<sim::NodeId>{16, 64};
  spec.seed_count = quick ? 4 : 16;
  spec.seeds_per_shard = 2;
  spec.knobs.max_rounds = 50'000;

  const std::vector<campaign::ShardConfig> shards = spec.expandShards();
  std::size_t trials = 0;
  for (const campaign::ShardConfig& shard : shards) {
    trials += static_cast<std::size_t>(shard.trials);
  }
  std::cout << "campaign overhead: " << shards.size() << " shards, " << trials
            << " trials, " << workers << " workers"
            << (quick ? " (--quick)" : "") << "\n";

  util::Table table({"mode", "seconds", "ms/trial", "vs raw"});
  double raw_seconds = 0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (const campaign::ShardConfig& shard : shards) {
      campaign::runShard(shard);
    }
    raw_seconds = secondsSince(t0);
    table.row().cell("raw").cell(raw_seconds, 3).cell(
        raw_seconds * 1e3 / static_cast<double>(trials), 3);
  }

  campaign::CampaignOptions options;
  options.checkpoint_dir = freshDir("bench_campaign_inproc");
  options.workers = workers;
  {
    const auto t0 = std::chrono::steady_clock::now();
    const campaign::CampaignOutcome outcome =
        campaign::runCampaign(spec, options);
    const double s = secondsSince(t0);
    DYNET_CHECK(outcome.fullCoverage()) << "bench campaign failed";
    table.row()
        .cell("inprocess")
        .cell(s, 3)
        .cell(s * 1e3 / static_cast<double>(trials), 3)
        .cell(raw_seconds > 0 ? s / raw_seconds : 0, 2);
  }
  {
    // Resume over a complete checkpoint: fold, skip, report merge.
    const auto t0 = std::chrono::steady_clock::now();
    const campaign::CampaignOutcome outcome =
        campaign::runCampaign(spec, options);
    const double s = secondsSince(t0);
    DYNET_CHECK(outcome.completed_new == 0) << "resume re-ran shards";
    table.row().cell("resume(noop)").cell(s, 3).cell(
        s * 1e3 / static_cast<double>(trials), 3);
  }

  if (!worker_cmd.empty()) {
    campaign::CampaignOptions sub;
    sub.checkpoint_dir = freshDir("bench_campaign_subproc");
    sub.workers = workers;
    sub.subprocess = true;
    sub.worker_cmd = worker_cmd;
    const auto t0 = std::chrono::steady_clock::now();
    const campaign::CampaignOutcome outcome = campaign::runCampaign(spec, sub);
    const double s = secondsSince(t0);
    DYNET_CHECK(outcome.fullCoverage()) << "subprocess bench campaign failed";
    table.row()
        .cell("subprocess")
        .cell(s, 3)
        .cell(s * 1e3 / static_cast<double>(trials), 3)
        .cell(raw_seconds > 0 ? s / raw_seconds : 0, 2);
    std::filesystem::remove_all(sub.checkpoint_dir);
  } else {
    std::cout << "(pass --worker-cmd path/to/dynet_cli to bench subprocess "
                 "mode)\n";
  }
  std::filesystem::remove_all(options.checkpoint_dir);
  std::cout << table.toString();
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::util::guardedMain(argc, argv, dynet::run);
}
