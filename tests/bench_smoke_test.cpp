// Smoke tests for the benchmark harness binaries: every bench must run to
// completion (exit 0) in its quick configuration.  This keeps the
// experiment suite itself under CI discipline — a bench that crashes or
// trips an internal [FAIL] check fails here, not at paper-reproduction
// time.
//
// The bench directory is injected by CMake as DYNET_BENCH_DIR.  Each bench
// runs inside its test's own scratch directory (testsupport::testDir()), so
// the BENCH_*.json a bench writes into its working directory stays private
// to one test under `ctest -j`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "test_support.h"

namespace {

std::string benchPath(const std::string& name) {
  return std::string(DYNET_BENCH_DIR) + "/" + name;
}

int runQuiet(const std::string& command) {
  return std::system((command + " > /dev/null 2>&1").c_str());
}

class BenchSmoke : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchSmoke, RunsCleanInQuickMode) {
  const std::string binary = benchPath(GetParam());
  if (!std::filesystem::exists(binary)) {
    GTEST_SKIP() << binary << " not built";
  }
  // Every bench supports --quick (see bench/bench_common.h); a non-zero
  // exit here means the bench crashed or broke the --quick contract.
  EXPECT_EQ(runQuiet("cd " + dynet::testsupport::testDir() + " && " + binary +
                     " --quick"),
            0)
      << binary;
}

// The heavier sweeps are exercised by the top-level bench run; here we
// cover the fast table generators and bench_sim_perf's quick legs (every
// comparison exits 1 unless its two legs agree).
INSTANTIATE_TEST_SUITE_P(Quick, BenchSmoke,
                         ::testing::Values("bench_fig1_gamma",
                                           "bench_fig2_fig3_lambda",
                                           "bench_cflood_lower",
                                           "bench_consensus_lower",
                                           "bench_disjcp",
                                           "bench_ablation_cascade",
                                           "bench_dual_graph",
                                           "bench_churn",
                                           "bench_faults",
                                           "bench_sim_perf"));

}  // namespace
