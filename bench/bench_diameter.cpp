// Diameter-computation protocols vs. the hardness frontier: sweep the
// diam_* family (docs/DIAMETER.md) over the distance lower-bound gadget
// instances of src/lowerbound/distance_lb.h, measure rounds against each
// protocol's asserted O(n) schedule bound, and FAIL unless every run lands
// inside its envelope and its answer satisfies the paper guarantee:
//
//   diam_exact     output == D exactly, at every node, <= 4n rounds
//   diam_2approx   ecc(0) <= D <= 2*ecc(0), <= 2n+2 rounds
//   diam_32approx  floor(2D/3) <= D-hat <= D, <= 6n + 3|S| + 9 rounds
//
// Ground truth comes from the all-pairs BFS oracle (net::staticDiameter) on
// the very graph the adversary replays, so the gadget constructions are
// re-validated on every bench run (clean ACH must be exactly 4, planted 5;
// BK must be 2p+2 vs 2p+3).  For the ACH rows the table carries the
// communication-complexity frontier m / (cut * B) — the Omega(m / (w B))
// scale below which no protocol can decide diameter 4 vs 5 — next to the
// measured upper-bound rounds, which is the rounds-vs-bound curve
// BENCH_diameter.json exists to plot.
//
// Honors the --quick contract of bench_common.h (CI smoke-runs this; quick
// sweeps two n values and still asserts every envelope) and writes
// BENCH_diameter.json (--json-out=PATH to override, "" to skip).
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "adversary/static_adversaries.h"
#include "bench_common.h"
#include "campaign/shard_exec.h"
#include "campaign/spec.h"
#include "lowerbound/distance_lb.h"
#include "net/diameter.h"
#include "protocols/diameter_approx.h"
#include "protocols/distance_bfs.h"
#include "util/cli.h"
#include "util/table.h"

namespace dynet {
namespace {

struct Row {
  sim::NodeId n = 0;
  std::string family;
  int true_diameter = 0;
  std::string protocol;
  sim::Round rounds = 0;
  sim::Round bound = 0;
  std::uint64_t estimate = 0;
  double frontier = 0;  // ACH only: m / (cut * B), else 0
};

struct Instance {
  std::string family;
  net::GraphPtr graph;
  int expected_diameter = 0;
  double frontier = 0;
};

std::vector<Instance> makeInstances(sim::NodeId n, int stretch,
                                    std::uint64_t seed) {
  std::vector<Instance> out;
  for (const bool planted : {false, true}) {
    const lb::AchBitGadget ach(n, /*width=*/0, seed, planted);
    const double budget =
        static_cast<double>(sim::defaultBudgetBits(n));
    out.push_back({planted ? "ach_gadget+" : "ach_gadget", ach.graph(),
                   ach.expectedDiameter(),
                   static_cast<double>(ach.m()) /
                       (static_cast<double>(ach.cutEdges()) * budget)});
  }
  for (const bool planted : {false, true}) {
    const lb::BkApproxGadget bk(n, /*width=*/0, stretch, seed, planted);
    out.push_back({planted ? "bk_gadget+" : "bk_gadget", bk.graph(),
                   bk.expectedDiameter(), 0.0});
  }
  return out;
}

Row runOne(const std::string& protocol, const Instance& inst, sim::NodeId n,
           int true_diameter, const std::vector<int>& oracle_ecc,
           std::uint64_t seed) {
  campaign::ShardConfig shard;
  shard.protocol = protocol;
  shard.n = n;
  const std::unique_ptr<sim::ProcessFactory> factory =
      campaign::makeProtocolFactory(shard, seed);

  sim::Round bound = 0;
  if (protocol == "diam_exact") {
    bound = proto::DiamExactProcess::scheduleRounds(n);
    DYNET_CHECK(bound <= 4 * n)
        << "diam_exact schedule " << bound << " exceeds 4n at n=" << n;
  } else if (protocol == "diam_2approx") {
    bound = proto::Diam2ApproxProcess::scheduleRounds(n);
  } else {
    bound = proto::Diam32ApproxProcess::scheduleRounds(n);
  }

  sim::EngineConfig config;
  config.max_rounds = bound + 8;
  config.duplex = true;
  sim::Engine engine(*factory,
                     std::make_unique<adv::StaticAdversary>(inst.graph),
                     config, seed);
  const sim::RunResult& r = engine.run();
  DYNET_CHECK(r.all_done) << protocol << " on " << inst.family << " n=" << n
                          << " never finished";
  DYNET_CHECK(r.all_done_round <= bound)
      << protocol << " on " << inst.family << " n=" << n << " took "
      << r.all_done_round << " rounds, over its bound " << bound;

  const auto estimate = engine.process(0).output();
  const auto d = static_cast<std::uint64_t>(true_diameter);
  if (protocol == "diam_exact") {
    for (sim::NodeId v = 0; v < n; ++v) {
      DYNET_CHECK(engine.process(v).output() == d)
          << "diam_exact node " << v << " on " << inst.family << " n=" << n
          << " output " << engine.process(v).output() << ", true D=" << d;
      const auto& p = dynamic_cast<const proto::DiamExactProcess&>(
          engine.process(v));
      DYNET_CHECK(p.eccentricity() ==
                  oracle_ecc[static_cast<std::size_t>(v)])
          << "diam_exact node " << v << " ecc " << p.eccentricity()
          << " != oracle " << oracle_ecc[static_cast<std::size_t>(v)];
    }
  } else if (protocol == "diam_2approx") {
    DYNET_CHECK(estimate == static_cast<std::uint64_t>(oracle_ecc[0]))
        << "diam_2approx estimate " << estimate << " != ecc(0)="
        << oracle_ecc[0] << " on " << inst.family << " n=" << n;
    DYNET_CHECK(estimate <= d && d <= 2 * estimate)
        << "diam_2approx bound violated: ecc(0)=" << estimate << ", D=" << d;
  } else {
    DYNET_CHECK(estimate <= d &&
                estimate >= static_cast<std::uint64_t>(2 * true_diameter / 3))
        << "diam_32approx estimate " << estimate << " outside [floor(2D/3), "
        << "D] for D=" << d << " on " << inst.family << " n=" << n;
  }

  Row row;
  row.n = n;
  row.family = inst.family;
  row.true_diameter = true_diameter;
  row.protocol = protocol;
  row.rounds = r.all_done_round;
  row.bound = bound;
  row.estimate = estimate;
  row.frontier = inst.frontier;
  return row;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = bench::quickMode(cli);
  const int stretch = static_cast<int>(
      cli.integer("stretch", 2, 0, std::numeric_limits<int>::max()));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 42));
  const std::string json_path = cli.str("json-out", "BENCH_diameter.json");
  cli.rejectUnknown();

  const std::vector<sim::NodeId> sweep =
      quick ? std::vector<sim::NodeId>{32, 64}
            : std::vector<sim::NodeId>{64, 128, 256, 512};
  const std::vector<std::string> protocols = {"diam_exact", "diam_2approx",
                                              "diam_32approx"};

  std::vector<Row> rows;
  for (const sim::NodeId n : sweep) {
    for (const Instance& inst : makeInstances(n, stretch, seed)) {
      // The oracle re-validates the gadget before any protocol runs on it.
      const std::vector<int> oracle_ecc =
          net::staticEccentricities(*inst.graph);
      int true_diameter = 0;
      for (const int e : oracle_ecc) {
        true_diameter = std::max(true_diameter, e);
      }
      DYNET_CHECK(true_diameter == inst.expected_diameter)
          << inst.family << " n=" << n << " built diameter " << true_diameter
          << ", family promised " << inst.expected_diameter;
      for (const std::string& protocol : protocols) {
        rows.push_back(
            runOne(protocol, inst, n, true_diameter, oracle_ecc, seed));
      }
    }
  }

  util::Table table(
      {"n", "family", "D", "protocol", "rounds", "bound", "fill", "estimate",
       "lb frontier"});
  for (const Row& row : rows) {
    auto& r = table.row();
    r.cell(static_cast<std::int64_t>(row.n))
        .cell(row.family)
        .cell(static_cast<std::int64_t>(row.true_diameter))
        .cell(row.protocol)
        .cell(static_cast<std::int64_t>(row.rounds))
        .cell(static_cast<std::int64_t>(row.bound))
        .cell(static_cast<double>(row.rounds) /
                  static_cast<double>(row.bound),
              3)
        .cell(static_cast<std::int64_t>(row.estimate));
    if (row.frontier > 0) {
      r.cell(row.frontier, 4);
    } else {
      r.cell("-");
    }
  }
  std::cout << table.toString();

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    DYNET_CHECK(json.good()) << "cannot open " << json_path;
    json << "{\n  \"bench\": \"diameter\",\n"
         << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
         << "  \"stretch\": " << stretch << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      json << "    {\"n\": " << row.n << ", \"family\": \"" << row.family
           << "\", \"true_diameter\": " << row.true_diameter
           << ", \"protocol\": \"" << row.protocol
           << "\", \"rounds\": " << row.rounds << ", \"bound\": " << row.bound
           << ", \"estimate\": " << row.estimate
           << ", \"lb_frontier\": " << row.frontier << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "results written to " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  try {
    return dynet::run(argc, argv);
  } catch (const dynet::util::CheckError& e) {
    std::cerr << "bench_diameter: " << e.what() << "\n";
    return 1;
  }
}
