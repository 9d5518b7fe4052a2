// Campaign-layer coverage: spec parsing and shard expansion, content
// addressing, the durable records of the checkpoint's events.jsonl,
// retry/backoff policy math, and full campaign runs in both execution
// modes.
//
// The supervision ladder is exercised with REAL subprocess workers (the
// dynet_cli binary from the build tree, via DYNET_TOOLS_DIR) and the
// sabotage hooks: a "crash" shard burns all attempts and is quarantined
// while the campaign completes; a "crash_once" shard fails, backs off,
// retries, and succeeds — the flaky-worker story end to end.  The
// byte-identity pins (in-process == subprocess, interrupted+resumed ==
// uninterrupted) are the determinism contract of docs/CAMPAIGNS.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/scheduler.h"
#include "campaign/shard_exec.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "campaign/telemetry.h"
#include "campaign/worker.h"
#include "obs/events.h"
#include "obs/json.h"
#include "sim/engine.h"
#include "test_support.h"
#include "util/check.h"
#include "util/rng.h"

#ifndef DYNET_TOOLS_DIR
#error "DYNET_TOOLS_DIR must point at the build tree's tools directory"
#endif

namespace dynet::campaign {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  const std::string path = testsupport::testDir() + name;
  fs::remove_all(path);
  return path;
}

std::string smallSpecText() {
  return R"({
    "name": "t",
    "protocols": ["flood", "leader_known_d"],
    "adversaries": ["static_path", "random_tree"],
    "nodes": [8],
    "seeds": {"base": 7, "count": 4, "per_shard": 2},
    "max_rounds": 5000
  })";
}

TEST(CampaignSpec, HashIsFnv1aOfCanonicalJson) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);  // reference vector
  EXPECT_EQ(hashHex(0), "0000000000000000");
  EXPECT_EQ(hashHex(0xdeadbeefULL), "00000000deadbeef");
  ShardConfig shard;
  EXPECT_EQ(shard.hash(), hashHex(fnv1a64(shard.canonicalJson())));
}

TEST(CampaignSpec, CanonicalJsonRoundTripsThroughParser) {
  // The worker re-derives the hash from the parsed config; any field that
  // does not survive the round trip (e.g. a 64-bit seed squeezed through a
  // double) would break supervisor/worker agreement.
  ShardConfig shard;
  shard.protocol = "leader_unknown_d";
  shard.adversary = "gnp";
  shard.n = 32;
  shard.trials = 3;
  shard.seed_base = 0xdeadbeefcafef00dULL;  // needs > 53 bits
  shard.p = 0.125;
  shard.fault.name = "burst";
  shard.fault.config.crash_fraction = 0.25;
  shard.fault.config.restart = true;
  const ShardConfig parsed =
      parseShardConfig(obs::Json::parse(shard.canonicalJson()));
  EXPECT_EQ(parsed.seed_base, shard.seed_base);
  EXPECT_EQ(parsed.canonicalJson(), shard.canonicalJson());
  EXPECT_EQ(parsed.hash(), shard.hash());
}

TEST(CampaignSpec, ParseRejectsGarbage) {
  EXPECT_THROW(CampaignSpec::parse("{"), util::CheckError);
  EXPECT_THROW(CampaignSpec::parse(R"({"protocols": ["flood"]})"),
               util::CheckError);  // missing adversaries/nodes/seeds
  EXPECT_THROW(CampaignSpec::parse(R"({
    "protocols": ["flood"], "adversaries": ["static_path"],
    "nodes": [8], "seeds": {"count": 1}, "typo_key": 1})"),
               util::CheckError);
  EXPECT_THROW(CampaignSpec::parse(R"({
    "protocols": ["no_such_protocol"], "adversaries": ["static_path"],
    "nodes": [8], "seeds": {"count": 1}})"),
               util::CheckError);
  EXPECT_THROW(CampaignSpec::parse(R"({
    "protocols": ["flood"], "adversaries": ["static_path"],
    "nodes": [8], "seeds": {"count": 0}})"),
               util::CheckError);
  // Unknown sabotage modes must die at parse time, not inside a worker.
  EXPECT_THROW(CampaignSpec::parse(R"({
    "protocols": ["flood"], "adversaries": ["static_path"], "nodes": [8],
    "seeds": {"count": 1}, "faults": [{"name": "x", "sabotage": "maim"}]})"),
               util::CheckError);
  // Every integer must be finite, integral and in range: casting 1e10 to
  // int is undefined behaviour, and 8.9 nodes or 2.7 seeds must not be
  // truncated silently.  The error names the key and the value.
  const auto rejects = [](const std::string& nodes, const std::string& seeds,
                          const std::string& expected) {
    try {
      CampaignSpec::parse(R"({"protocols": ["flood"],
        "adversaries": ["static_path"], "nodes": )" +
                          nodes + R"(, "seeds": )" + seeds + "}");
      ADD_FAILURE() << "accepted nodes " << nodes << " seeds " << seeds;
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  };
  rejects("[1e10]", R"({"count": 1})", "'nodes' = 1e+10");
  rejects("[8.9]", R"({"count": 1})", "'nodes' = 8.9");
  rejects("[1]", R"({"count": 1})", "'nodes' = 1 is not an integer in [2,");
  rejects("[8]", R"({"base": -3, "count": 2})", "'seeds.base' = -3");
  rejects("[8]", R"({"base": 9007199254740994, "count": 2})",
          "'seeds.base' = 9007199254740994");
  rejects("[8]", R"({"count": 2.7})", "'count' = 2.7");
  rejects("[8]", R"({"count": 1e999})", "'count' = inf");
  // Every real must be finite and inside the range its consumer enforces.
  const auto rejectsKnob = [](const std::string& knob,
                              const std::string& expected) {
    try {
      CampaignSpec::parse(R"({"protocols": ["flood"],
        "adversaries": ["static_path"], "nodes": [8], "seeds": {"count": 1},
        )" + knob + "}");
      ADD_FAILURE() << "accepted " << knob;
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  };
  rejectsKnob(R"("p": 1e999)", "'p' = inf is not a number in [0, 1]");
  rejectsKnob(R"("p": -0.25)", "'p' = -0.25");
  rejectsKnob(R"("c": 0)", "'c' = 0 is not a number in (0, 0.333333]");
  rejectsKnob(R"("c": 0.5)", "'c' = 0.5");
  rejectsKnob(R"("n_estimate": 0.5)", "'n_estimate' = 0.5 is neither 0");
  rejectsKnob(R"("n_estimate": -1e999)", "'n_estimate' = -inf");
  rejectsKnob(R"("trace_bucket": 0)", "'trace_bucket' = 0");
  rejectsKnob(R"("faults": [{"name": "x", "drop_prob": -0.5}])",
              "'drop_prob' = -0.5 is not a number in [0, 1]");
  rejectsKnob(R"("faults": [{"name": "x", "corrupt_prob": 1.5}])",
              "'corrupt_prob' = 1.5");
  rejectsKnob(R"("faults": [{"name": "x", "crash_fraction": 2}])",
              "'crash_fraction' = 2");
  // Shard configs (a worker's input line) read through the same helper.
  ShardConfig shard;
  shard.protocol = "flood";
  shard.adversary = "static_path";
  shard.n = 8;
  std::string json = shard.canonicalJson();
  const std::string trials = "\"trials\":" + std::to_string(shard.trials);
  ASSERT_NE(json.find(trials), std::string::npos) << json;
  json.replace(json.find(trials), trials.size(), "\"trials\":1e10");
  try {
    parseShardConfig(obs::Json::parse(json));
    ADD_FAILURE() << "accepted " << json;
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("'trials' = 1e+10"),
              std::string::npos)
        << e.what();
  }
  json = shard.canonicalJson();
  ASSERT_NE(json.find("\"p\":0,"), std::string::npos) << json;
  json.replace(json.find("\"p\":0,"), 6, "\"p\":1e999,");
  try {
    parseShardConfig(obs::Json::parse(json));
    ADD_FAILURE() << "accepted " << json;
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("'p' = inf"), std::string::npos)
        << e.what();
  }
}

// Every knob of a spec reaches every shard: the canonical configs (and so
// the content hashes that name committed results) of a spec that sets each
// knob away from its default, pinned byte for byte.
TEST(CampaignSpec, EveryKnobReachesEveryShardUnchanged) {
  const CampaignSpec spec = CampaignSpec::parse(R"({
    "name": "every-knob",
    "protocols": ["leader_unknown_d"],
    "adversaries": ["trace"],
    "nodes": [12],
    "faults": [{"name": "clean"},
               {"name": "all", "crash_fraction": 0.125, "crash_window": 9,
                "restart": true, "restart_downtime": 3, "drop_prob": 0.0625,
                "corrupt_prob": 0.25, "deliver_corrupted": true,
                "sabotage": "crash_once", "sabotage_marker": "m.flag"}],
    "seeds": {"base": 5, "count": 3, "per_shard": 2},
    "max_rounds": 777, "diameter": 5, "k": 3, "p": 0.375, "interval": 4,
    "churn": 3, "n_estimate": 13.5, "c": 0.2, "trace": "data/x.events",
    "trace_policy": "mirror", "trace_offset": true, "trace_spine": false,
    "trace_bucket": 2.5, "anonymous": true, "gadget_width": 3, "stretch": 2,
    "gadget_intersect": true})");
  const std::string cell =
      R"({"protocol":"leader_unknown_d","adversary":"trace","n":12,)";
  const std::string block1 = R"("trials":2,"seed_base":"bf3208a257b09705",)";
  const std::string block2 = R"("trials":1,"seed_base":"3284fe15d063ba77",)";
  const std::string knobs =
      R"("max_rounds":777,"diameter":5,"k":3,"p":0.375,"interval":4,)"
      R"("churn":3,"n_estimate":13.5,"c":0.20000000000000001,)"
      R"("trace":"data/x.events","trace_policy":"mirror",)"
      R"("trace_offset":true,"trace_spine":false,"trace_bucket":2.5,)"
      R"("anonymous":true,"gadget_width":3,"stretch":2,)"
      R"("gadget_intersect":true,"fault":)";
  const std::string clean =
      R"({"name":"clean","crash_fraction":0,"crash_window":64,)"
      R"("restart":false,"restart_downtime":32,"drop_prob":0,)"
      R"("corrupt_prob":0,"deliver_corrupted":false,"sabotage":"",)"
      R"("sabotage_marker":""}})";
  const std::string all =
      R"({"name":"all","crash_fraction":0.125,"crash_window":9,)"
      R"("restart":true,"restart_downtime":3,"drop_prob":0.0625,)"
      R"("corrupt_prob":0.25,"deliver_corrupted":true,)"
      R"("sabotage":"crash_once","sabotage_marker":"m.flag"}})";
  const std::vector<ShardConfig> shards = spec.expandShards();
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0].canonicalJson(), cell + block1 + knobs + clean);
  EXPECT_EQ(shards[1].canonicalJson(), cell + block2 + knobs + clean);
  EXPECT_EQ(shards[2].canonicalJson(), cell + block1 + knobs + all);
  EXPECT_EQ(shards[3].canonicalJson(), cell + block2 + knobs + all);
  EXPECT_EQ(shards[0].hash(), "6dfc5eef82ee5854");
  EXPECT_EQ(shards[1].hash(), "8dc0f7e59e82f384");
  EXPECT_EQ(shards[2].hash(), "0b67a6b9cbc9f519");
  EXPECT_EQ(shards[3].hash(), "7befef93ff3278c9");
  // The worker's reader rebuilds each shard from its canonical line.
  for (const ShardConfig& shard : shards) {
    EXPECT_EQ(parseShardConfig(obs::Json::parse(shard.canonicalJson()))
                  .canonicalJson(),
              shard.canonicalJson());
  }
}

TEST(CampaignSpec, ExpandShardsCoversTheGridDeterministically) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  const std::vector<ShardConfig> shards = spec.expandShards();
  // 2 protocols x 2 adversaries x 1 n x 1 fault x 2 seed blocks.
  ASSERT_EQ(shards.size(), 8u);
  for (const ShardConfig& shard : shards) {
    EXPECT_EQ(shard.trials, 2);
    EXPECT_EQ(shard.max_rounds, 5000);
  }
  // Blocks of the same cell get distinct derived base seeds.
  EXPECT_NE(shards[0].seed_base, shards[1].seed_base);
  EXPECT_NE(shards[0].hash(), shards[1].hash());
  // Expansion is deterministic (the merge-order guarantee).
  const std::vector<ShardConfig> again =
      CampaignSpec::parse(smallSpecText()).expandShards();
  ASSERT_EQ(again.size(), shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(again[i].canonicalJson(), shards[i].canonicalJson());
  }
}

TEST(CampaignSpec, LastSeedBlockTakesTheRemainder) {
  CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  spec.seed_count = 5;
  spec.seeds_per_shard = 2;
  spec.protocols = {"flood"};
  spec.adversaries = {"static_path"};
  const std::vector<ShardConfig> shards = spec.expandShards();
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].trials, 2);
  EXPECT_EQ(shards[1].trials, 2);
  EXPECT_EQ(shards[2].trials, 1);
}

TEST(RetryPolicy, BackoffDoublesAndCaps) {
  RetryPolicy retry;
  retry.backoff_ms = 100;
  retry.backoff_max_ms = 450;
  EXPECT_EQ(retry.backoffDelayMs(1), 100);
  EXPECT_EQ(retry.backoffDelayMs(2), 200);
  EXPECT_EQ(retry.backoffDelayMs(3), 400);
  EXPECT_EQ(retry.backoffDelayMs(4), 450);  // capped
  EXPECT_EQ(retry.backoffDelayMs(10), 450);
  EXPECT_THROW(retry.backoffDelayMs(0), util::CheckError);
}

ShardResult sampleResult(const std::string& hash) {
  ShardResult result;
  result.hash = hash;
  result.trials = 2;
  result.metrics["rounds"] = {7, 9.5};
  result.metrics["all_done"] = {1, 1};
  return result;
}

TEST(CheckpointStore, CommitLoadQuarantineRoundTrip) {
  // A shard's outcome is the last of its durable records in events.jsonl.
  CheckpointStore store(freshDir("campaign_store"));
  EXPECT_TRUE(store.fold().shards.empty());  // no stream yet
  const std::string reason = "died: \"segv\"\nrepeatedly";
  {
    CampaignTelemetry journal(store, "t", "c", 4, 1, false);
    journal.shardCommitted("aa", 1, sampleResult("aa"));
    journal.shardQuarantined("cc", 3, reason);
    journal.shardQuarantined("dd", 2, "boom");
    journal.shardRequeued("dd");
  }
  const std::map<std::string, ShardRecord> shards = store.fold().shards;
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards.at("aa").state, ShardRecord::State::kCommitted);
  EXPECT_EQ(shards.at("aa").result.toJson(), sampleResult("aa").toJson());
  // The reason survives its quotes and newline.
  EXPECT_EQ(shards.at("cc").state, ShardRecord::State::kQuarantined);
  EXPECT_EQ(shards.at("cc").error, reason);
  EXPECT_EQ(shards.at("cc").attempts, 3);
  // A requeued shard is pending again: neither committed nor quarantined.
  EXPECT_EQ(shards.at("dd").state, ShardRecord::State::kRequeued);
  EXPECT_FALSE(shards.count("bb"));

  // A committed record whose result answers for another shard is refused.
  {
    CampaignTelemetry journal(store, "t", "c", 4, 1, false);
    journal.shardCommitted("bb", 1, sampleResult("aa"));
  }
  try {
    store.fold();
    ADD_FAILURE() << "folded a result under the wrong shard";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("event line 5: result hash aa does "
                                         "not match shard bb"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardExec, ResultJsonRoundTrips) {
  ShardResult result;
  result.hash = "00ff";
  result.trials = 2;
  result.metrics["rounds"] = {7, 9.5};
  result.metrics["all_done"] = {1, 1};
  const ShardResult parsed = ShardResult::parseJson(result.toJson());
  EXPECT_EQ(parsed.hash, result.hash);
  EXPECT_EQ(parsed.trials, result.trials);
  EXPECT_EQ(parsed.metrics, result.metrics);
  EXPECT_THROW(ShardResult::parseJson("{\"not_a_shard\":1}"),
               util::CheckError);
  EXPECT_THROW(ShardResult::parseJson("{\"dynet_shard\":1,\"trials\""),
               util::CheckError);
}

TEST(ShardExec, RunShardIsDeterministic) {
  ShardConfig shard;
  shard.protocol = "leader_known_d";
  shard.adversary = "random_tree";
  shard.n = 12;
  shard.trials = 3;
  shard.seed_base = 99;
  shard.max_rounds = 5000;
  const std::string a = runShard(shard).toJson();
  const std::string b = runShard(shard).toJson();
  EXPECT_EQ(a, b);
  const ShardResult parsed = ShardResult::parseJson(a);
  EXPECT_EQ(parsed.hash, shard.hash());
  ASSERT_EQ(parsed.metrics.at("rounds").size(), 3u);
  EXPECT_GT(parsed.metrics.at("rounds")[0], 0);
}

TEST(ShardExec, EngineConfigForcesAnonymousAndDuplexByProtocol) {
  ShardConfig shard;
  shard.max_rounds = 77;
  for (const std::string& protocol : protocolNames()) {
    shard.protocol = protocol;
    shard.anonymous = false;
    const sim::EngineConfig config = makeEngineConfig(shard);
    EXPECT_EQ(config.max_rounds, 77) << protocol;
    EXPECT_EQ(config.anonymous, protocol.rfind("anon_", 0) == 0) << protocol;
    EXPECT_EQ(config.duplex, protocol.rfind("diam_", 0) == 0) << protocol;
    // The shard's own anonymous flag holds for every protocol.
    shard.anonymous = true;
    EXPECT_TRUE(makeEngineConfig(shard).anonymous) << protocol;
  }
}

TEST(ShardExec, FloodShardRunsOnSoAAndMatchesTheObjectPath) {
  // runShard builds each trial's engine from the protocol factory under
  // makeEngineConfig, which puts flood trials on the SoA state store;
  // every recorded sample must equal the same trial run on process
  // objects.
  ShardConfig shard;
  shard.protocol = "flood";
  shard.adversary = "random_tree";
  shard.n = 24;
  shard.trials = 3;
  shard.seed_base = 7;
  shard.max_rounds = 48;
  const ShardResult result = runShard(shard);
  for (int i = 0; i < shard.trials; ++i) {
    const std::uint64_t seed =
        util::hashCombine(shard.seed_base, static_cast<std::uint64_t>(i));
    const std::unique_ptr<sim::ProcessFactory> factory =
        makeProtocolFactory(shard, seed);
    const sim::EngineConfig config = makeEngineConfig(shard);
    EXPECT_TRUE(sim::Engine(*factory, makeAdversary(shard, seed), config, seed)
                    .soaActive());
    sim::Engine objects(sim::createProcesses(*factory, shard.n),
                        makeAdversary(shard, seed), config, seed);
    ASSERT_FALSE(objects.soaActive());
    const sim::RunResult& r = objects.run();
    const auto sample = [&](const char* name) {
      return result.metrics.at(name).at(static_cast<std::size_t>(i));
    };
    EXPECT_EQ(sample("rounds"), static_cast<double>(r.all_done_round)) << i;
    EXPECT_EQ(sample("all_done"), r.all_done ? 1.0 : 0.0) << i;
    EXPECT_EQ(sample("messages"), static_cast<double>(r.messages_sent)) << i;
    EXPECT_EQ(sample("bits"), static_cast<double>(r.bits_sent)) << i;
    EXPECT_EQ(sample("max_bits_per_node"),
              static_cast<double>(r.max_bits_per_node))
        << i;
  }
}

TEST(ShardExec, FaultyShardRecordsFaultMetrics) {
  ShardConfig shard;
  shard.protocol = "flood";
  // Dense G(n,p): the live subgraph stays connected through the crash
  // window (a star would disconnect the instant its center crashes).
  shard.adversary = "gnp";
  shard.p = 0.6;
  shard.n = 16;
  shard.trials = 2;
  // Flood with halt_round 0 never quiesces, so the run lasts max_rounds;
  // keep it short and restart crashed nodes fast so every live-subgraph
  // draw stays connected at these seeds.
  shard.max_rounds = 40;
  shard.fault.name = "crashy";
  shard.fault.config.crash_fraction = 0.25;
  shard.fault.config.crash_window = 8;
  shard.fault.config.restart = true;
  shard.fault.config.restart_downtime = 4;
  const ShardResult result = runShard(shard);
  EXPECT_TRUE(result.metrics.count("crashes"));
  EXPECT_TRUE(result.metrics.count("restarts"));
}

std::string reportOf(const std::string& dir) {
  CheckpointStore store(dir);
  return store.readFile("report.json").value();
}

TEST(Campaign, InProcessRunCompletesAndReportsFullCoverage) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_inproc");
  options.workers = 3;
  const CampaignOutcome outcome = runCampaign(spec, options);
  EXPECT_EQ(outcome.shards_total, 8u);
  EXPECT_EQ(outcome.completed_new, 8u);
  EXPECT_EQ(outcome.quarantined, 0u);
  EXPECT_TRUE(outcome.fullCoverage());
  EXPECT_FALSE(outcome.stopped_early);
  const obs::Json report =
      obs::Json::parse(reportOf(options.checkpoint_dir));
  EXPECT_EQ(report.at("counters").at("campaign/trials").number(), 16);
  EXPECT_EQ(report.at("gauges").at("campaign/coverage").number(), 1);
  // 8 shards x 2 trials of samples, merged in expansion order.
  EXPECT_EQ(
      report.at("series").at("trial/rounds").items().size(), 16u);
}

TEST(Campaign, InterruptedThenResumedReportIsByteIdentical) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions uninterrupted;
  uninterrupted.checkpoint_dir = freshDir("campaign_full");
  uninterrupted.workers = 2;
  ASSERT_TRUE(runCampaign(spec, uninterrupted).fullCoverage());

  // "Interrupt" deterministically: stop after 3 committed shards (the CI
  // smoke test does the same with a real SIGKILL).
  CampaignOptions partial;
  partial.checkpoint_dir = freshDir("campaign_partial");
  partial.workers = 1;
  partial.shard_limit = 3;
  const CampaignOutcome first = runCampaign(spec, partial);
  EXPECT_TRUE(first.stopped_early);
  EXPECT_EQ(first.completed_new, 3u);

  CampaignOptions resume;
  resume.checkpoint_dir = partial.checkpoint_dir;
  resume.workers = 2;  // different worker count on purpose
  const CampaignOutcome second = runCampaign(spec, resume);
  EXPECT_EQ(second.completed_prior, 3u);
  EXPECT_EQ(second.completed_new, 5u);
  EXPECT_TRUE(second.fullCoverage());
  EXPECT_EQ(reportOf(resume.checkpoint_dir),
            reportOf(uninterrupted.checkpoint_dir));
}

TEST(Campaign, RefusesForeignCheckpointDirectory) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_foreign");
  options.shard_limit = 1;
  runCampaign(spec, options);
  CampaignSpec other = spec;
  other.nodes = {16};  // different grid -> different shard identity
  EXPECT_THROW(runCampaign(other, options), util::CheckError);
}

TEST(Campaign, InProcessSabotageQuarantinesAndDegrades) {
  CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  spec.protocols = {"flood"};
  spec.adversaries = {"static_path"};
  spec.retry.max_attempts = 2;
  spec.retry.backoff_ms = 1;
  spec.retry.backoff_max_ms = 2;
  ShardFault bad;
  bad.name = "saboteur";
  bad.sabotage = "crash";
  spec.faults = {ShardFault{}, bad};
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_sabotage");
  const CampaignOutcome outcome = runCampaign(spec, options);
  EXPECT_EQ(outcome.shards_total, 4u);  // 2 faults x 2 seed blocks
  EXPECT_EQ(outcome.completed_new, 2u);
  EXPECT_EQ(outcome.quarantined, 2u);
  EXPECT_EQ(outcome.failed_attempts, 4u);  // 2 shards x 2 attempts
  EXPECT_FALSE(outcome.fullCoverage());
  EXPECT_FALSE(outcome.stopped_early);  // degraded, not aborted

  // Quarantined shards are skipped on resume...
  const CampaignOutcome again = runCampaign(spec, options);
  EXPECT_EQ(again.completed_prior, 2u);
  EXPECT_EQ(again.quarantined, 2u);
  EXPECT_EQ(again.failed_attempts, 0u);

  // ...unless retry is requested explicitly.
  options.retry_quarantined = true;
  const CampaignOutcome retried = runCampaign(spec, options);
  EXPECT_EQ(retried.failed_attempts, 4u);
  EXPECT_EQ(retried.quarantined, 2u);
}

std::string workerCmd() { return std::string(DYNET_TOOLS_DIR) + "/dynet_cli"; }

/// Each shard_committed record's `result` payload, by shard, as written.
std::map<std::string, std::string> committedResults(const std::string& dir) {
  std::map<std::string, std::string> results;
  std::ifstream in(dir + "/events.jsonl");
  std::string line;
  while (std::getline(in, line)) {
    const obs::Json e = obs::Json::parse(line);
    if (e.at("type").str() == "shard_committed") {
      // `result` is the record's last field.
      const std::size_t at = line.find("\"result\":") + 9;
      results[e.at("shard").str()] = line.substr(at, line.size() - 1 - at);
    }
  }
  return results;
}

TEST(Campaign, SubprocessModeMatchesInProcessByteForByte) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions inproc;
  inproc.checkpoint_dir = freshDir("campaign_mode_a");
  inproc.workers = 2;
  ASSERT_TRUE(runCampaign(spec, inproc).fullCoverage());

  CampaignOptions subproc;
  subproc.checkpoint_dir = freshDir("campaign_mode_b");
  subproc.workers = 2;
  subproc.subprocess = true;
  subproc.worker_cmd = workerCmd();
  const CampaignOutcome outcome = runCampaign(spec, subproc);
  EXPECT_TRUE(outcome.fullCoverage()) << "failed attempts: "
                                      << outcome.failed_attempts;
  EXPECT_EQ(reportOf(inproc.checkpoint_dir),
            reportOf(subproc.checkpoint_dir));
  // So are the result payloads of the durable records.
  const std::map<std::string, std::string> results =
      committedResults(inproc.checkpoint_dir);
  EXPECT_EQ(results.size(), 8u);
  EXPECT_EQ(results, committedResults(subproc.checkpoint_dir));
}

TEST(Campaign, CrashingWorkerIsQuarantinedCampaignCompletes) {
  CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  spec.protocols = {"flood"};
  spec.adversaries = {"static_path"};
  spec.retry.max_attempts = 2;
  spec.retry.backoff_ms = 1;
  spec.retry.backoff_max_ms = 2;
  spec.retry.timeout_ms = 30'000;
  ShardFault crash;
  crash.name = "crash";
  crash.sabotage = "crash";
  spec.faults = {ShardFault{}, crash};
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_crash");
  options.subprocess = true;
  options.worker_cmd = workerCmd();
  const CampaignOutcome outcome = runCampaign(spec, options);
  EXPECT_EQ(outcome.completed_new, 2u);
  EXPECT_EQ(outcome.quarantined, 2u);
  EXPECT_EQ(outcome.failed_attempts, 4u);
}

TEST(Campaign, HangingWorkerIsKilledOnTimeout) {
  CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  spec.protocols = {"flood"};
  spec.adversaries = {"static_path"};
  spec.seed_count = 1;
  spec.seeds_per_shard = 1;
  spec.retry.max_attempts = 2;
  spec.retry.backoff_ms = 1;
  spec.retry.backoff_max_ms = 2;
  spec.retry.timeout_ms = 200;  // the hang must die fast
  ShardFault hang;
  hang.name = "hang";
  hang.sabotage = "hang";
  spec.faults = {hang};
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_hang");
  options.subprocess = true;
  options.worker_cmd = workerCmd();
  const CampaignOutcome outcome = runCampaign(spec, options);
  EXPECT_EQ(outcome.completed_new, 0u);
  EXPECT_EQ(outcome.quarantined, 1u);
  EXPECT_EQ(outcome.failed_attempts, 2u);
}

TEST(Campaign, FlakyWorkerSucceedsOnRetry) {
  CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  spec.protocols = {"flood"};
  spec.adversaries = {"static_path"};
  spec.seed_count = 1;
  spec.seeds_per_shard = 1;
  spec.retry.max_attempts = 3;
  spec.retry.backoff_ms = 1;
  spec.retry.backoff_max_ms = 2;
  spec.retry.timeout_ms = 30'000;
  const std::string marker = testsupport::testDir() + "campaign_flaky_marker";
  fs::remove(marker);
  ShardFault flaky;
  flaky.name = "flaky";
  flaky.sabotage = "crash_once";
  flaky.sabotage_marker = marker;
  spec.faults = {flaky};
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_flaky");
  options.subprocess = true;
  options.worker_cmd = workerCmd();
  const CampaignOutcome outcome = runCampaign(spec, options);
  EXPECT_EQ(outcome.completed_new, 1u);
  EXPECT_EQ(outcome.quarantined, 0u);
  EXPECT_EQ(outcome.failed_attempts, 1u);  // exactly one strike, then done
  EXPECT_TRUE(fs::exists(marker));
  fs::remove(marker);
}

// ---------------------------------------------------------- durable records

std::string readText(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::set<std::string> listing(const std::string& dir) {
  std::set<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

/// The shard hash of every complete `type` record in an events.jsonl text.
std::vector<std::string> recordShards(const std::string& text,
                                      const std::string& type) {
  std::vector<std::string> hashes;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line) && !lines.eof()) {
    const obs::Json e = obs::Json::parse(line);
    if (e.at("type").str() == type) {
      hashes.push_back(e.at("shard").str());
    }
  }
  return hashes;
}

TEST(CheckpointStore, RunLeavesExactlyTheFourFiles) {
  const std::set<std::string> expected = {"spec.json", "events.jsonl",
                                          "report.json",
                                          "scheduler_profile.json"};
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_layout");
  options.workers = 2;
  options.shard_limit = 3;
  ASSERT_TRUE(runCampaign(spec, options).stopped_early);
  EXPECT_EQ(listing(options.checkpoint_dir), expected);
  options.shard_limit = 0;
  ASSERT_TRUE(runCampaign(spec, options).fullCoverage());
  EXPECT_EQ(listing(options.checkpoint_dir), expected);  // no status.json

  // A subprocess run that quarantines, then requeues, keeps the layout.
  CampaignSpec sabotaged = spec;
  sabotaged.protocols = {"flood"};
  sabotaged.adversaries = {"static_path"};
  sabotaged.retry.max_attempts = 1;
  ShardFault crash;
  crash.name = "crash";
  crash.sabotage = "crash";
  sabotaged.faults = {ShardFault{}, crash};
  CampaignOptions subproc;
  subproc.checkpoint_dir = freshDir("campaign_layout_subproc");
  subproc.subprocess = true;
  subproc.worker_cmd = workerCmd();
  EXPECT_EQ(runCampaign(sabotaged, subproc).quarantined, 2u);
  EXPECT_EQ(listing(subproc.checkpoint_dir), expected);
  subproc.retry_quarantined = true;
  EXPECT_EQ(runCampaign(sabotaged, subproc).quarantined, 2u);
  EXPECT_EQ(listing(subproc.checkpoint_dir), expected);
  EXPECT_EQ(recordShards(readText(subproc.checkpoint_dir + "/events.jsonl"),
                         "shard_requeued")
                .size(),
            2u);
}

TEST(CheckpointStore, RefusesPreJournalShardsDirectory) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_prejournal");
  fs::create_directories(options.checkpoint_dir + "/shards");
  try {
    runCampaign(spec, options);
    ADD_FAILURE() << "resumed into a pre-journal checkpoint";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(options.checkpoint_dir + "/shards"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(options.checkpoint_dir + "/events.jsonl"));
}

TEST(Campaign, ResumeAfterTornCommitRerunsExactlyThatShard) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions uninterrupted;
  uninterrupted.checkpoint_dir = freshDir("campaign_torn_reference");
  ASSERT_TRUE(runCampaign(spec, uninterrupted).fullCoverage());

  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_torn_commit");
  options.shard_limit = 3;
  ASSERT_TRUE(runCampaign(spec, options).stopped_early);
  // Cut the stream inside its last shard_committed line, as a SIGKILL
  // during that write would.
  const std::string path = options.checkpoint_dir + "/events.jsonl";
  const std::string text = readText(path);
  const std::size_t last = text.rfind("\"type\":\"shard_committed\"");
  ASSERT_NE(last, std::string::npos);
  const std::vector<std::string> committed =
      recordShards(text, "shard_committed");
  ASSERT_EQ(committed.size(), 3u);
  fs::resize_file(path, last + 10);
  const std::string torn = committed.back();

  options.shard_limit = 0;
  const CampaignOutcome resumed = runCampaign(spec, options);
  EXPECT_EQ(resumed.completed_prior, 2u);
  EXPECT_EQ(resumed.completed_new, 6u);
  EXPECT_TRUE(resumed.fullCoverage());
  // The resume claimed the torn shard and neither of the intact ones.
  const std::string after = readText(path);
  const std::size_t resume_start =
      after.rfind('\n', after.rfind("\"type\":\"campaign_started\"")) + 1;
  const std::vector<std::string> claimed =
      recordShards(after.substr(resume_start), "shard_claimed");
  const std::set<std::string> claimed_set(claimed.begin(), claimed.end());
  EXPECT_EQ(claimed.size(), 6u);
  EXPECT_TRUE(claimed_set.count(torn));
  EXPECT_FALSE(claimed_set.count(committed[0]));
  EXPECT_FALSE(claimed_set.count(committed[1]));
  EXPECT_EQ(reportOf(options.checkpoint_dir),
            reportOf(uninterrupted.checkpoint_dir));
}

TEST(Campaign, GarbageEventLineFailsTheResume) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_garbage_line");
  options.shard_limit = 2;
  ASSERT_TRUE(runCampaign(spec, options).stopped_early);
  const std::string path = options.checkpoint_dir + "/events.jsonl";
  std::string text = readText(path);
  const auto lines = std::count(text.begin(), text.end(), '\n');
  text += "garbage\n";
  std::ofstream(path) << text;
  const std::string where = "event line " + std::to_string(lines + 1) + ": ";
  for (const bool report_only : {false, true}) {
    try {
      if (report_only) {
        std::ostringstream out;
        writeReport(spec, CheckpointStore(options.checkpoint_dir), out);
      } else {
        runCampaign(spec, options);
      }
      ADD_FAILURE() << "folded a garbage line";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(readText(path), text);  // the failed resume wrote nothing
}

TEST(Campaign, WorkerCannotCommitAShard) {
  // A worker that prints a well-formed shard_committed record and exits 1:
  // only the supervisor writes durable records, so the shard is
  // quarantined and the stream holds no commit for it.
  CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  spec.protocols = {"flood"};
  spec.adversaries = {"static_path"};
  spec.seed_count = 1;
  spec.seeds_per_shard = 1;
  spec.retry.max_attempts = 2;
  spec.retry.backoff_ms = 1;
  spec.retry.backoff_max_ms = 2;
  spec.retry.timeout_ms = 30'000;
  const ShardConfig shard = spec.expandShards().at(0);
  ShardResult forged = sampleResult(shard.hash());
  forged.trials = shard.trials;
  forged.metrics = {{"rounds", {1}}};
  const std::string line = obs::Event("shard_committed")
                               .str("shard", shard.hash())
                               .num("attempt", 1)
                               .num("trials", shard.trials)
                               .raw("result", forged.toJson())
                               .serialize(0);
  const std::string script = testsupport::testDir() + "forging_worker.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\nread shard\nprintf '%s\\n' '" << line << "'\nexit 1\n";
  }
  fs::permissions(script, fs::perms::owner_all);
  CampaignOptions options;
  options.checkpoint_dir = freshDir("campaign_forging_worker");
  options.subprocess = true;
  options.worker_cmd = script;
  const CampaignOutcome outcome = runCampaign(spec, options);
  EXPECT_EQ(outcome.completed_new, 0u);
  EXPECT_EQ(outcome.quarantined, 1u);
  EXPECT_EQ(outcome.failed_attempts, 2u);
  const std::string events = readText(options.checkpoint_dir + "/events.jsonl");
  EXPECT_TRUE(recordShards(events, "shard_committed").empty());
  EXPECT_EQ(CheckpointStore(options.checkpoint_dir)
                .fold()
                .shards.at(shard.hash())
                .state,
            ShardRecord::State::kQuarantined);
  fs::remove(script);
}

// ---------------------------------------------------------------- telemetry

std::vector<obs::Json> readEvents(const std::string& dir) {
  std::ifstream in(dir + "/events.jsonl");
  EXPECT_TRUE(in.good()) << "no events.jsonl in " << dir;
  std::vector<obs::Json> events;
  std::string line;
  while (std::getline(in, line)) {
    events.push_back(obs::Json::parse(line));
  }
  return events;
}

CampaignStatus readStatus(const std::string& dir) {
  std::ifstream in(dir + "/events.jsonl");
  EXPECT_TRUE(in.good()) << "no events.jsonl in " << dir;
  const std::optional<CampaignStatus> status = foldEvents(in).status;
  EXPECT_TRUE(status.has_value()) << "no campaign_started in " << dir;
  return status.value_or(CampaignStatus{});
}

TEST(Telemetry, EventStreamCoversInProcessCampaign) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions options;
  options.checkpoint_dir = freshDir("telemetry_events");
  options.workers = 3;
  ASSERT_TRUE(runCampaign(spec, options).fullCoverage());

  const std::vector<obs::Json> events = readEvents(options.checkpoint_dir);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().at("type").str(), "campaign_started");
  EXPECT_EQ(events.back().at("type").str(), "campaign_finished");
  EXPECT_TRUE(events.back().at("full_coverage").boolean());

  // Correlation: one campaign id on every record, seq contiguous from 0.
  const std::string campaign_id = events.front().at("campaign").str();
  EXPECT_EQ(campaign_id.size(), 16u);  // hex fnv1a of the spec identity
  std::set<std::string> committed;
  std::set<std::string> exec_started;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events[i];
    EXPECT_EQ(e.at("campaign").str(), campaign_id);
    EXPECT_EQ(e.at("seq").number(), static_cast<double>(i));
    if (e.at("type").str() == "shard_committed") {
      EXPECT_TRUE(committed.insert(e.at("shard").str()).second)
          << "duplicate shard_committed for " << e.at("shard").str();
      EXPECT_EQ(e.at("attempt").number(), 1);
      EXPECT_EQ(e.at("trials").number(), 2);
    }
    if (e.at("type").str() == "shard_exec_started") {
      EXPECT_EQ(e.at("origin").str(), "inprocess");
      exec_started.insert(e.at("shard").str());
    }
  }
  std::set<std::string> expected;
  for (const ShardConfig& shard : spec.expandShards()) {
    expected.insert(shard.hash());
  }
  EXPECT_EQ(committed, expected);
  EXPECT_EQ(exec_started, expected);
}

TEST(Telemetry, StatusMatchesReportAcrossInterruptAndResume) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions partial;
  partial.checkpoint_dir = freshDir("telemetry_resume");
  partial.workers = 1;
  partial.shard_limit = 3;
  const CampaignOutcome first = runCampaign(spec, partial);
  ASSERT_TRUE(first.stopped_early);

  const CampaignStatus mid = readStatus(partial.checkpoint_dir);
  EXPECT_EQ(mid.state, "stopped_early");
  EXPECT_EQ(mid.done, 3u);
  EXPECT_EQ(mid.shards_total, 8u);

  CampaignOptions resume;
  resume.checkpoint_dir = partial.checkpoint_dir;
  resume.workers = 2;
  const CampaignOutcome second = runCampaign(spec, resume);
  ASSERT_TRUE(second.fullCoverage());

  // Terminal status agrees with the merged report.
  const CampaignStatus status = readStatus(resume.checkpoint_dir);
  const obs::Json report =
      obs::Json::parse(reportOf(resume.checkpoint_dir));
  EXPECT_EQ(status.state, "finished");
  EXPECT_EQ(status.done,
            report.at("counters").at("campaign/shards_completed").number());
  EXPECT_EQ(status.quarantined,
            report.at("counters").at("campaign/shards_quarantined").number());
  EXPECT_EQ(status.trials_done,
            report.at("counters").at("campaign/trials").number());
  EXPECT_EQ(status.running, 0u);
  EXPECT_EQ(status.pending, 0u);

  // One stream spans both runs: seq contiguous, no duplicate commits, and
  // the resume's campaign_started credits the prior shards.
  const std::vector<obs::Json> events = readEvents(resume.checkpoint_dir);
  std::set<std::string> committed;
  std::size_t starts = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at("seq").number(), static_cast<double>(i));
    if (events[i].at("type").str() == "shard_committed") {
      EXPECT_TRUE(committed.insert(events[i].at("shard").str()).second);
    }
    if (events[i].at("type").str() == "campaign_started") {
      ++starts;
      EXPECT_EQ(events[i].at("completed_prior").number(),
                starts == 1 ? 0 : 3);
    }
  }
  EXPECT_EQ(starts, 2u);
  EXPECT_EQ(committed.size(), 8u);
}

TEST(Telemetry, TornEventTailIsRepairedOnResume) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions partial;
  partial.checkpoint_dir = freshDir("telemetry_torn");
  partial.shard_limit = 2;
  ASSERT_TRUE(runCampaign(spec, partial).stopped_early);
  {
    // Simulate a SIGKILL mid-record: a torn final line without newline.
    std::ofstream out(partial.checkpoint_dir + "/events.jsonl",
                      std::ios::app);
    out << "{\"dynet_event\":1,\"seq\":99999,\"typ";
  }
  CampaignOptions resume;
  resume.checkpoint_dir = partial.checkpoint_dir;
  ASSERT_TRUE(runCampaign(spec, resume).fullCoverage());
  const std::vector<obs::Json> events = readEvents(resume.checkpoint_dir);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at("seq").number(), static_cast<double>(i));
  }
}

TEST(Telemetry, SubprocessWorkerEventsPropagateWithSlotContext) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions options;
  options.checkpoint_dir = freshDir("telemetry_subproc");
  options.workers = 2;
  options.subprocess = true;
  options.worker_cmd = workerCmd();
  ASSERT_TRUE(runCampaign(spec, options).fullCoverage());

  std::size_t spawned = 0;
  std::set<std::string> exec_finished;
  for (const obs::Json& e : readEvents(options.checkpoint_dir)) {
    const std::string type = e.at("type").str();
    if (type == "worker_spawned") {
      ++spawned;
      EXPECT_GT(e.at("pid").number(), 0);
      EXPECT_GE(e.at("slot").number(), 0);
    }
    if (type == "shard_exec_finished") {
      EXPECT_EQ(e.at("origin").str(), "worker");
      EXPECT_GE(e.at("slot").number(), 0);
      EXPECT_GE(e.at("exec_ms").number(), 0);
      EXPECT_EQ(e.at("trials").number(), 2);
      EXPECT_GE(e.at("attempt").number(), 1);
      exec_finished.insert(e.at("shard").str());
    }
  }
  EXPECT_GE(spawned, 1u);
  EXPECT_EQ(exec_finished.size(), 8u);
}

TEST(Telemetry, FlakyShardAttemptHistorySurvivesInStatus) {
  CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  spec.protocols = {"flood"};
  spec.adversaries = {"static_path"};
  spec.seed_count = 1;
  spec.seeds_per_shard = 1;
  spec.retry.max_attempts = 3;
  spec.retry.backoff_ms = 1;
  spec.retry.backoff_max_ms = 2;
  const std::string marker =
      testsupport::testDir() + "telemetry_flaky_marker";
  fs::remove(marker);
  ShardFault flaky;
  flaky.name = "flaky";
  flaky.sabotage = "crash_once";
  flaky.sabotage_marker = marker;
  spec.faults = {flaky};
  CampaignOptions options;
  options.checkpoint_dir = freshDir("telemetry_flaky");
  options.subprocess = true;
  options.worker_cmd = workerCmd();
  const CampaignOutcome outcome = runCampaign(spec, options);
  EXPECT_EQ(outcome.completed_new, 1u);
  fs::remove(marker);

  const std::string hash = spec.expandShards()[0].hash();
  bool saw_failed = false;
  bool saw_committed_retry = false;
  for (const obs::Json& e : readEvents(options.checkpoint_dir)) {
    if (e.at("type").str() == "attempt_failed") {
      saw_failed = true;
      EXPECT_EQ(e.at("shard").str(), hash);
      EXPECT_EQ(e.at("attempt").number(), 1);
      EXPECT_TRUE(e.has("backoff_ms"));
    }
    if (e.at("type").str() == "shard_committed") {
      saw_committed_retry = true;
      EXPECT_EQ(e.at("attempt").number(), 2);
    }
  }
  EXPECT_TRUE(saw_failed);
  EXPECT_TRUE(saw_committed_retry);

  // The flaky shard stays visible in the status's attention map.
  const CampaignStatus status = readStatus(options.checkpoint_dir);
  const auto& attention = status.attention;
  ASSERT_TRUE(attention.count(hash));
  EXPECT_EQ(attention.at(hash).state, "done");
  EXPECT_EQ(attention.at(hash).attempts, 2);
}

// The fold of a synthetic stream: a stopped-early run, then a resume with a
// flaky shard, a quarantined one, one still running and a torn tail.
TEST(Telemetry, FoldStatusReplaysTheLastRunOfTheStream) {
  std::string text;
  std::int64_t ts_ms = 1'000;
  const auto add = [&](const obs::Event& e) {
    ts_ms += 100;
    text += e.serialize(0, ts_ms) + "\n";
  };
  const auto shardEvent = [](const std::string& type, const std::string& h) {
    obs::Event e(type);
    e.str("campaign", "c").str("shard", h);
    return e;
  };
  const auto started = [&](int completed_prior, int pending) {
    add(obs::Event("campaign_started")
            .str("campaign", "c")
            .str("name", "fold")
            .num("shards_total", 5)
            .num("completed_prior", completed_prior)
            .num("quarantined_prior", 0)
            .num("pending", pending)
            .num("workers", 2)
            .boolean("subprocess", false));
  };
  started(0, 5);
  add(shardEvent("shard_claimed", "a").num("index", 0));
  add(shardEvent("attempt_started", "a").num("attempt", 1));
  const auto committed = [&](const std::string& h, int attempt) {
    add(shardEvent("shard_committed", h)
            .num("attempt", attempt)
            .num("trials", 2)
            .raw("result", sampleResult(h).toJson()));
  };
  committed("a", 1);
  add(obs::Event("campaign_finished")
          .str("campaign", "c")
          .num("completed", 1)
          .num("quarantined", 0)
          .num("failed_attempts", 0)
          .num("trials", 2)
          .boolean("stopped_early", true)
          .boolean("full_coverage", false));
  started(1, 4);  // the resume credits a
  add(shardEvent("shard_claimed", "b").num("index", 1));
  add(shardEvent("attempt_started", "b").num("attempt", 1));
  add(shardEvent("attempt_failed", "b")
          .num("attempt", 1)
          .num("max_attempts", 3)
          .str("error", "flake")
          .num("backoff_ms", 1));
  const std::string retrying_prefix = text;
  add(shardEvent("attempt_started", "b").num("attempt", 2));
  add(shardEvent("shard_exec_finished", "b").num("attempt", 2));
  committed("b", 2);
  add(shardEvent("shard_claimed", "c").num("index", 2));
  add(shardEvent("attempt_started", "c").num("attempt", 1));
  add(shardEvent("attempt_failed", "c")
          .num("attempt", 1)
          .num("max_attempts", 1)
          .str("error", "boom"));
  add(shardEvent("shard_quarantined", "c").num("attempts", 1).str("error",
                                                                  "boom"));
  add(shardEvent("shard_claimed", "d").num("index", 3));
  add(shardEvent("attempt_started", "d").num("attempt", 1));
  text += R"({"dynet_event":1,"seq":99,"ts_ms":99999,"type":"shard_comm)";

  std::istringstream in(text);
  const EventFold fold = foldEvents(in);
  const std::optional<CampaignStatus>& s = fold.status;
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->campaign, "c");
  EXPECT_EQ(s->name, "fold");
  EXPECT_EQ(s->state, "running");
  EXPECT_EQ(s->started_ms, 1'600);
  EXPECT_EQ(s->updated_ms, 2'800);  // the torn tail's ts_ms is not read
  EXPECT_EQ(s->shards_total, 5u);
  EXPECT_EQ(s->completed_prior, 1u);
  EXPECT_EQ(s->done, 2u);
  EXPECT_EQ(s->running, 1u);
  EXPECT_EQ(s->retrying, 0u);
  EXPECT_EQ(s->pending, 1u);
  EXPECT_EQ(s->quarantined, 1u);
  EXPECT_EQ(s->failed_attempts, 2u);
  EXPECT_EQ(s->trials_done, 2u);  // this run's commits only
  ASSERT_EQ(s->attention.size(), 3u);  // a belongs to the first run
  EXPECT_EQ(s->attention.at("b").state, "done");
  EXPECT_EQ(s->attention.at("b").attempts, 2);
  EXPECT_EQ(s->attention.at("c").state, "quarantined");
  EXPECT_EQ(s->attention.at("c").attempts, 1);
  EXPECT_EQ(s->attention.at("c").last_error, "boom");
  EXPECT_EQ(s->attention.at("d").state, "running");
  EXPECT_EQ(s->attention.at("d").attempts, 1);
  // The outcomes span both runs; d has no durable record yet.
  ASSERT_EQ(fold.shards.size(), 3u);
  EXPECT_EQ(fold.shards.at("a").state, ShardRecord::State::kCommitted);
  EXPECT_EQ(fold.shards.at("b").result.toJson(), sampleResult("b").toJson());
  EXPECT_EQ(fold.shards.at("c").state, ShardRecord::State::kQuarantined);
  EXPECT_EQ(fold.shards.at("c").error, "boom");

  // Between its attempts, b is retrying.
  std::istringstream prefix(retrying_prefix);
  const std::optional<CampaignStatus> mid = foldEvents(prefix).status;
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->running, 0u);
  EXPECT_EQ(mid->retrying, 1u);
  EXPECT_EQ(mid->attention.at("b").state, "retrying");
  EXPECT_EQ(mid->attention.at("b").last_error, "flake");

  // No campaign_started: nothing to fold.
  std::istringstream headless(shardEvent("shard_claimed", "a").serialize(0) +
                              "\n");
  EXPECT_FALSE(foldEvents(headless).status.has_value());
  std::istringstream empty("");
  EXPECT_FALSE(foldEvents(empty).status.has_value());

  // A malformed complete line, and a count no size_t holds, throw with the
  // 1-based line number.
  const auto rejects = [](const std::string& stream,
                          const std::string& expected) {
    std::istringstream bad(stream);
    try {
      foldEvents(bad);
      ADD_FAILURE() << "folded " << stream;
    } catch (const util::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("event line 2: "), std::string::npos) << what;
      EXPECT_NE(what.find(expected), std::string::npos) << what;
    }
  };
  const std::string first_line = text.substr(0, text.find('\n') + 1);
  rejects(first_line + "not json\n" + first_line, "bad literal");
  std::string huge = first_line;
  huge.replace(huge.find("\"shards_total\":5"), 16, "\"shards_total\":1e300");
  rejects(first_line + huge, "'shards_total' = 1e+300 is not an integer");
}

TEST(Telemetry, SchedulerProfileIsValidMetricsJson) {
  const CampaignSpec spec = CampaignSpec::parse(smallSpecText());
  CampaignOptions options;
  options.checkpoint_dir = freshDir("telemetry_profile");
  options.workers = 2;
  ASSERT_TRUE(runCampaign(spec, options).fullCoverage());

  std::ifstream in(options.checkpoint_dir + "/scheduler_profile.json");
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const obs::Json profile = obs::Json::parse(buf.str());
  EXPECT_TRUE(profile.has("dynet_metrics"));
  const obs::Json& counters = profile.at("counters");
  EXPECT_EQ(counters.at("campaign//execute/calls").number(), 8);
  EXPECT_EQ(counters.at("campaign//commit/calls").number(), 8);
  EXPECT_EQ(counters.at("campaign//queue_wait/calls").number(), 8);
  EXPECT_EQ(counters.at("campaign//run/calls").number(), 1);
  EXPECT_TRUE(profile.at("histograms").has("campaign//execute/us"));
  // In-process execution runs under the supervisor's prof scope, so the
  // engine's own DYNET_PROF timers land beside the stage samples.
  EXPECT_TRUE(counters.has("prof/engine/run/calls"));
}

TEST(Worker, EmitEventsInterleavesEventLinesWithResults) {
  ShardConfig shard;
  shard.protocol = "flood";
  shard.adversary = "static_ring";
  shard.n = 8;
  shard.trials = 2;
  shard.max_rounds = 1000;
  std::istringstream in(shard.canonicalJson() + "\n");
  std::ostringstream out;
  EXPECT_EQ(workerMain(in, out), 0);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> kinds;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"dynet_event\"", 0) == 0) {
      kinds.push_back(obs::Json::parse(line).at("type").str());
      EXPECT_EQ(obs::Json::parse(line).at("shard").str(), shard.hash());
    } else {
      kinds.push_back("result");
      EXPECT_EQ(ShardResult::parseJson(line).hash, shard.hash());
    }
  }
  EXPECT_EQ(kinds,
            (std::vector<std::string>{"shard_exec_started",
                                      "shard_exec_finished", "result"}));
}

TEST(Worker, RunsShardsFromStreamUntilEof) {
  ShardConfig shard;
  shard.protocol = "flood";
  shard.adversary = "static_ring";
  shard.n = 8;
  shard.max_rounds = 1000;
  std::istringstream in(shard.canonicalJson() + "\n\n" +
                        shard.canonicalJson() + "\n");
  std::ostringstream out;
  EXPECT_EQ(workerMain(in, out), 0);
  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"dynet_event\"", 0) == 0) {
      continue;
    }
    const ShardResult result = ShardResult::parseJson(line);
    EXPECT_EQ(result.hash, shard.hash());
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST(Worker, MalformedConfigLineThrows) {
  std::istringstream in("{\"protocol\":\"flood\"");
  std::ostringstream out;
  EXPECT_THROW(workerMain(in, out), util::CheckError);
}

}  // namespace
}  // namespace dynet::campaign
