// E2 — Figures 2 and 3 of the paper: centipede structures of the type-Λ
// subnetwork under the reference adversary.
//
//   Figure 2: x_i = y_i = 0, q = 7 — a mounting point exists and the
//   cascade removes chains (0,0), (2,2), (4,4) in rounds 1, 2, 3.
//   Figure 3: x_i = 2, y_i = 3, q = 7, all middles sending — rule 3 removes
//   the (2,3) top edge in round 2 and the (4,5) top edge in round 3.
//
// Also measures the mounting point's causal insulation: the number of
// rounds before it can affect A_Λ (paper: Ω(q)).
#include <iostream>

#include "bench_common.h"
#include "lowerbound/lambda.h"
#include "util/table.h"

namespace dynet {
namespace {

using lb::LambdaNet;
using sim::Round;

bool hasEdge(const std::vector<net::Edge>& edges, sim::NodeId a, sim::NodeId b) {
  for (const auto& e : edges) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
      return true;
    }
  }
  return false;
}

void renderCentipede(const LambdaNet& net, bool middles_sending, Round rounds) {
  std::vector<sim::Action> actions(static_cast<std::size_t>(net.numNodes()));
  if (middles_sending) {
    for (auto& a : actions) {
      a.send = true;
    }
  }
  std::vector<std::string> headers = {"round"};
  for (int j = 0; j < net.chainsPerCentipede(); ++j) {
    headers.push_back("chain j=" + std::to_string(j) + " (" +
                      std::to_string(net.topLabel(0, j)) + "," +
                      std::to_string(net.bottomLabel(0, j)) + ")");
  }
  util::Table table(headers);
  for (Round r = 1; r <= rounds; ++r) {
    std::vector<net::Edge> edges;
    net.appendReferenceEdges(r, actions, edges);
    table.row().cell(static_cast<std::int64_t>(r));
    for (int j = 0; j < net.chainsPerCentipede(); ++j) {
      std::string pic = "o";
      pic += hasEdge(edges, net.top(0, j), net.mid(0, j)) ? '|' : ':';
      pic += 'o';
      pic += hasEdge(edges, net.mid(0, j), net.bottom(0, j)) ? '|' : ':';
      pic += 'o';
      table.cell(pic);
    }
  }
  std::cout << table.toString();
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::quickMode(cli);  // deterministic and instant either way
  cli.rejectUnknown();
  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    std::cout << (cond ? "  [ok] " : "  [FAIL] ") << what << "\n";
    failures += cond ? 0 : 1;
  };

  {
    std::cout << "Figure 2 — centipede with x_i = y_i = 0, q = 7 (cascading "
                 "removals)\n";
    cc::Instance inst;
    inst.n = 1;
    inst.q = 7;
    inst.x = {0};
    inst.y = {0};
    LambdaNet net(inst, 0);
    renderCentipede(net, /*middles_sending=*/false, 4);
    expect(net.mountingPoints().size() == 1 &&
               net.mountingPoints()[0] == net.mid(0, 0),
           "mounting point = middle of the |0,0 chain");

    // Causal insulation: record reference topologies of a quiet execution
    // and measure when the mounting point first reaches A_Λ.
    net::TopologySeq topologies;
    std::vector<sim::Action> receiving(static_cast<std::size_t>(net.numNodes()));
    for (Round r = 1; r <= 3 * inst.q; ++r) {
      std::vector<net::Edge> edges;
      net.appendReferenceEdges(r, receiving, edges);
      topologies.push_back(std::make_shared<net::Graph>(net.numNodes(), edges));
    }
    int reach_round = -1;
    for (Round budget = 1; budget <= 3 * inst.q; ++budget) {
      const auto reach =
          net::causalReach(topologies, net.mountingPoints()[0], 0, budget);
      if (net::bitmapTest(reach, net.a())) {
        reach_round = budget;
        break;
      }
    }
    std::cout << "  mounting point first affects A_Λ after " << reach_round
              << " rounds (horizon (q-1)/2 = " << (inst.q - 1) / 2 << ")\n";
    expect(reach_round > (inst.q - 1) / 2,
           "mounting point cannot affect A_Λ within the horizon (Ω(q))");
  }

  {
    std::cout << "\nFigure 3 — centipede with x_i = 2, y_i = 3, q = 7, all "
                 "middles sending\n";
    cc::Instance inst;
    inst.n = 1;
    inst.q = 7;
    inst.x = {2};
    inst.y = {3};
    LambdaNet net(inst, 0);
    renderCentipede(net, /*middles_sending=*/true, 4);
    expect(net.mountingPoints().empty(), "no mounting point when x_i+y_i > 0");
    expect(lb::aliceSpoiled(2).v == 2,
           "V on the (2,3) chain becomes spoiled for Alice at round 2");
  }

  std::cout << (failures == 0 ? "\nAll Figure 2/3 claims verified.\n"
                              : "\nFAILURES present.\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::bench::guardedMain(argc, argv, dynet::run);
}
