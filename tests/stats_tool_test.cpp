// Fixture-driven coverage for tools/dynet_stats (summary tables,
// histogram percentile math, and the two-run diff mode), plus one diff of
// two real dynet_cli runs on different state representations.
//
// The tool is exercised as a subprocess — the same way users run it — on
// metrics.json fixtures generated through obs::MetricsRegistry::writeJson,
// so the fixtures carry the real schema (and drift in the schema breaks
// this test, not just the tool).  Percentile expectations are
// hand-computed literals from the linear-interpolation formula, NOT
// round-tripped through the library, so a math regression in either the
// tool or obs::Histogram::percentileEstimate is caught.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "test_support.h"

#ifndef DYNET_TOOLS_DIR
#error "DYNET_TOOLS_DIR must point at the build tree's tools directory"
#endif

namespace dynet {
namespace {

struct ToolRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Runs the build tree's `tool` with `args`, capturing output and exit
/// code.
ToolRun runTool(const std::string& tool, const std::string& args) {
  const std::string cmd =
      std::string(DYNET_TOOLS_DIR) + "/" + tool + " " + args + " 2>&1";
  ToolRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    run.output += buffer;
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

ToolRun runStats(const std::string& args) {
  return runTool("dynet_stats", args);
}

std::string writeFixture(const std::string& name,
                         const obs::MetricsRegistry& registry) {
  const std::string path = testsupport::testDir() + name;
  std::ofstream out(path);
  registry.writeJson(out);
  return path;
}

/// The summary fixture: one of each metric kind with hand-checkable
/// statistics.
std::string summaryFixture() {
  obs::MetricsRegistry reg;
  reg.counter("engine/messages_sent")->inc(1234);
  reg.gauge("engine/rounds")->set(96.125);
  obs::Series* series = reg.series("round/bits");
  for (int i = 1; i <= 20; ++i) {
    series->append(static_cast<double>(i));  // 1..20
  }
  obs::Histogram* h = reg.histogram("delivery/per_node", {10, 20, 30});
  for (const double x : {4.0, 8.0, 12.0, 14.0, 16.0, 25.0}) {
    h->observe(x);
  }
  return writeFixture("stats_summary.json", reg);
}

TEST(StatsTool, SummaryTables) {
  const ToolRun run = runStats("--in " + summaryFixture());
  ASSERT_EQ(run.exit_code, 0) << run.output;
  // Counters print as integers, gauges with 3 decimals.
  EXPECT_NE(run.output.find("engine/messages_sent"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("1234"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("96.125"), std::string::npos) << run.output;
  // Series 1..20: count 20, mean 10.50, max 20.00.
  EXPECT_NE(run.output.find("round/bits"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("10.50"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("20.00"), std::string::npos) << run.output;
}

TEST(StatsTool, HistogramPercentileInterpolation) {
  // Samples {4, 8, 12, 14, 16, 25} against bounds {10, 20, 30}:
  // buckets hold [2, 3, 1, 0] with min 4, max 25, sum 79.
  //   p50: rank 3.0 -> bucket (10, 20], frac (3-2)/3  -> 10 + 10/3 = 13.33
  //   p95: rank 5.7 -> bucket (20, 25], frac (5.7-5)/1 -> 20 + 3.5 = 23.50
  //   p99: rank 5.94 -> same bucket, frac 0.94         -> 20 + 4.7 = 24.70
  //   mean: 79 / 6 = 13.17
  const ToolRun run = runStats("--in " + summaryFixture());
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("delivery/per_node"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("13.17"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("13.33"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("23.50"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("24.70"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("25.00"), std::string::npos) << run.output;
}

TEST(StatsTool, DiffModeShowsDeltasNewAndRemoved) {
  obs::MetricsRegistry baseline;
  baseline.counter("engine/messages_sent")->inc(100);
  baseline.counter("engine/messages_dropped")->inc(7);  // removed in current
  baseline.gauge("engine/rounds")->set(50);
  const std::string base_path = writeFixture("stats_base.json", baseline);

  obs::MetricsRegistry current;
  current.counter("engine/messages_sent")->inc(140);
  current.counter("engine/crashes")->inc(3);  // new in current
  current.gauge("engine/rounds")->set(64);
  const std::string cur_path = writeFixture("stats_cur.json", current);

  const ToolRun run =
      runStats("--in " + cur_path + " --baseline " + base_path);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  // 140 - 100 = 40 and 64 - 50 = 14, printed with 3 decimals.
  EXPECT_NE(run.output.find("40.000"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("14.000"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("(new)"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("(removed)"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("engine/crashes"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("engine/messages_dropped"), std::string::npos)
      << run.output;
}

TEST(StatsTool, DiffModeSplitsExecutionShapeGauges) {
  // soa// gauges describe which engine path ran, so the diff must pull
  // them out of the semantic gauge table into an execution-shape section
  // where a difference is annotated as expected — and a change of state
  // representation (soa//active) earns an explicit note.  The engine writes
  // two shape gauges; the baseline lacks soa//pull_rounds, like a metrics
  // file from a build that predates it.
  obs::MetricsRegistry baseline;
  baseline.gauge("engine/rounds")->set(50);
  baseline.gauge("soa//active")->set(0);
  const std::string base_path = writeFixture("stats_shape_base.json", baseline);

  obs::MetricsRegistry current;
  current.gauge("engine/rounds")->set(50);
  current.gauge("soa//active")->set(1);
  current.gauge("soa//pull_rounds")->set(60);
  const std::string cur_path = writeFixture("stats_shape_cur.json", current);

  const ToolRun run =
      runStats("--in " + cur_path + " --baseline " + base_path);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("execution shape (soa//)"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("(differs: expected)"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("(current only)"), std::string::npos)
      << run.output;
  // A run diffed against itself marks every shape gauge "(same)".
  const ToolRun same = runStats("--in " + cur_path + " --baseline " + cur_path);
  ASSERT_EQ(same.exit_code, 0) << same.output;
  EXPECT_NE(same.output.find("soa//pull_rounds"), std::string::npos)
      << same.output;
  EXPECT_NE(same.output.find("(same)"), std::string::npos) << same.output;
  EXPECT_EQ(same.output.find("(differs: expected)"), std::string::npos)
      << same.output;
  EXPECT_NE(run.output.find("soa//pull_rounds"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("different state representations"),
            std::string::npos)
      << run.output;
  // The shape gauges must NOT leak into the semantic gauge diff: the
  // semantic table would have tagged the one-sided pull gauge "(new)".
  EXPECT_EQ(run.output.find("(new)"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("(removed)"), std::string::npos) << run.output;
}

TEST(StatsTool, DiffFlagsTheStateRepresentationOfRealCliRuns) {
  // dynet_cli builds its engine from the protocol factory, so a flood run
  // executes on the SoA state store while leader election, which has no
  // SoA model, runs on process objects.  Diffing the two runs' metrics
  // must report soa//active as an expected execution-shape difference.
  const std::string dir = testsupport::testDir();
  const std::string flood = dir + "cli_flood.json";
  const std::string leader = dir + "cli_leader.json";
  // Flood never reports done, so the bounded run exits 1 by design.
  const ToolRun flood_run = runTool(
      "dynet_cli", "--protocol flood --adversary random_tree --nodes 32 "
                   "--seed 7 --max-rounds 64 --metrics-out " + flood);
  ASSERT_EQ(flood_run.exit_code, 1) << flood_run.output;
  const ToolRun leader_run = runTool(
      "dynet_cli", "--protocol leader_unknown_d --adversary random_tree "
                   "--nodes 32 --seed 7 --metrics-out " + leader);
  ASSERT_EQ(leader_run.exit_code, 0) << leader_run.output;

  const ToolRun run = runStats("--in " + flood + " --baseline " + leader);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  std::istringstream lines(run.output);
  std::string active_row;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(" soa//active ") != std::string::npos) {
      active_row = line;
    }
  }
  ASSERT_FALSE(active_row.empty()) << run.output;
  EXPECT_NE(active_row.find("(differs: expected)"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("different state representations"),
            std::string::npos)
      << run.output;
}

TEST(StatsTool, MissingInputFlagExitsTwoWithUsage) {
  const ToolRun run = runStats("");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("usage:"), std::string::npos) << run.output;
}

TEST(StatsTool, RejectsNonMetricsJson) {
  const std::string path = testsupport::testDir() + "stats_not_metrics.json";
  {
    std::ofstream out(path);
    out << "{\"unrelated\": true}\n";
  }
  const ToolRun run = runStats("--in " + path);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("not a dynet metrics.json"), std::string::npos)
      << run.output;
}

TEST(StatsTool, TruncatedJsonDiagnosesFileAndOffset) {
  // Simulate a writer killed mid-dump: a valid metrics.json cut in half.
  // The tool must exit 1 and point at the file and the byte offset where
  // parsing fell off the end — not a bare "not a number" style error.
  const std::string full_path = summaryFixture();
  std::string text;
  {
    std::ifstream in(full_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  ASSERT_GT(text.size(), 32u);
  const std::string path = testsupport::testDir() + "stats_truncated.json";
  {
    std::ofstream out(path);
    out << text.substr(0, text.size() / 2);
  }
  const ToolRun run = runStats("--in " + path);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("stats_truncated.json"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("malformed metrics JSON"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("offset"), std::string::npos) << run.output;
}

TEST(StatsTool, GarbageJsonDiagnosesFileAndOffset) {
  const std::string path = testsupport::testDir() + "stats_garbage.json";
  {
    std::ofstream out(path);
    out << "{\"dynet_metrics\": 1, \"counters\": {\"a\": ###}}\n";
  }
  const ToolRun run = runStats("--in " + path);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("stats_garbage.json"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("offset"), std::string::npos) << run.output;
}

TEST(StatsTool, RejectsMissingFile) {
  const ToolRun run =
      runStats("--in " + testsupport::testDir() + "does_not_exist.json");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("cannot open"), std::string::npos) << run.output;
}

}  // namespace
}  // namespace dynet
