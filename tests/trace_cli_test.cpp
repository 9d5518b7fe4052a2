// dynet_cli dataset surface, exercised as a subprocess (the way users hit
// it): --trace-info summaries, --trace-compile cache writing (byte-stable
// across recompiles), trace-replay runs, and the error paths — every
// misuse must exit non-zero with a message that names the problem.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "dataset/text_format.h"
#include "dataset/trace.h"
#include "test_support.h"

#ifndef DYNET_TOOLS_DIR
#error "DYNET_TOOLS_DIR must point at the build tree's tools directory"
#endif

namespace dynet {
namespace {

namespace fs = std::filesystem;

struct ToolRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

ToolRun runCli(const std::string& args) {
  const std::string cmd =
      std::string(DYNET_TOOLS_DIR) + "/dynet_cli " + args + " 2>&1";
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

std::string readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A deterministic event-list fixture on disk (16 nodes, 20 rounds).
std::string fixturePath() {
  static const std::string path = [] {
    const std::string p = testsupport::testDir() + "trace_cli_fixture.events";
    std::ofstream out(p);
    dataset::writeEventList(out, dataset::randomTrace(16, 20, 3, 0xC11));
    return p;
  }();
  return path;
}

TEST(TraceCli, InfoSummarizesADataset) {
  const ToolRun run = runCli("--trace-info " + fixturePath() +
                             " --no-trace-cache");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("nodes"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("16"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("rounds"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("content hash"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("text parse"), std::string::npos) << run.output;
}

TEST(TraceCli, InfoFailsLoudlyOnMissingAndMalformedFiles) {
  const ToolRun missing = runCli("--trace-info /definitely/not/here.events");
  EXPECT_NE(missing.exit_code, 0);
  EXPECT_NE(missing.output.find("cannot open"), std::string::npos)
      << missing.output;

  const std::string bad = testsupport::testDir() + "trace_cli_bad.events";
  {
    std::ofstream out(bad);
    out << "0 3 a b\n1 4 c\n";  // line 2 truncated
  }
  const ToolRun malformed = runCli("--trace-info " + bad);
  EXPECT_NE(malformed.exit_code, 0);
  EXPECT_NE(malformed.output.find(":2"), std::string::npos)
      << "diagnostic must carry the line number: " << malformed.output;
}

TEST(TraceCli, CompileWritesByteStableCache) {
  const std::string out1 = testsupport::testDir() + "trace_cli_a.dtc";
  const std::string out2 = testsupport::testDir() + "trace_cli_b.dtc";
  const ToolRun first =
      runCli("--trace-compile " + fixturePath() + " --out " + out1);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_NE(first.output.find("content hash"), std::string::npos);
  const ToolRun second =
      runCli("--trace-compile " + fixturePath() + " --out " + out2);
  ASSERT_EQ(second.exit_code, 0) << second.output;
  const std::string bytes1 = readBytes(out1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, readBytes(out2))
      << "recompiling the same source must be byte-identical";

  // A compiled file is a first-class dataset: --trace-info reads it back.
  const ToolRun info = runCli("--trace-info " + out1);
  ASSERT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("compiled cache"), std::string::npos)
      << info.output;
}

TEST(TraceCli, ReplayRunsAgainstATraceAdversary) {
  // A terminating protocol (count halts after its round budget), since the
  // CLI's exit code reports all_done.  --nodes omitted on purpose: the CLI
  // adopts the dataset's node count.
  const ToolRun run = runCli("--protocol count --adversary trace --trace-path " +
                             fixturePath() +
                             " --trace-policy mirror --k 8 --max-rounds 2000");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("all done"), std::string::npos) << run.output;
}

TEST(TraceCli, AnonymousReplayRuns) {
  const ToolRun run = runCli(
      "--protocol anon_count --adversary trace --trace-path " + fixturePath() +
      " --k 8 --max-rounds 2000 --anonymous");
  ASSERT_EQ(run.exit_code, 0) << run.output;
}

TEST(TraceCli, ErrorPathsNameTheProblem) {
  // trace adversary without a path.
  const ToolRun no_path = runCli("--protocol flood --adversary trace");
  EXPECT_NE(no_path.exit_code, 0);
  EXPECT_NE(no_path.output.find("--trace-path"), std::string::npos)
      << no_path.output;

  // trace path with a non-trace adversary.
  const ToolRun wrong_adv = runCli(
      "--protocol flood --adversary static_path --trace-path " + fixturePath());
  EXPECT_NE(wrong_adv.exit_code, 0);
  EXPECT_NE(wrong_adv.output.find("trace"), std::string::npos)
      << wrong_adv.output;

  // Unknown end policy.
  const ToolRun policy = runCli("--protocol flood --adversary trace "
                                "--trace-path " +
                                fixturePath() + " --trace-policy bounce");
  EXPECT_NE(policy.exit_code, 0);
  EXPECT_NE(policy.output.find("bounce"), std::string::npos) << policy.output;

  // Node-count mismatch is loud and tells the user what to pass.
  const ToolRun mismatch = runCli("--protocol flood --adversary trace "
                                  "--trace-path " +
                                  fixturePath() + " --nodes 5");
  EXPECT_NE(mismatch.exit_code, 0);
  EXPECT_NE(mismatch.output.find("pass n=16"), std::string::npos)
      << mismatch.output;
}

}  // namespace
}  // namespace dynet
