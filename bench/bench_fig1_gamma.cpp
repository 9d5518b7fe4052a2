// E1 — Figure 1 of the paper: the three adversaries of the type-Γ
// subnetwork for n = 4, q = 5, x = 3110, y = 2200, assuming all middle
// nodes are receiving.
//
// Regenerates, per round 0..2 and per adversary (reference / Alice / Bob),
// the edge-presence picture of the figure, and verifies the narrative
// claims made in §4 of the paper.
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "cc/disjointness_cp.h"
#include "lowerbound/gamma.h"
#include "util/table.h"

namespace dynet {
namespace {

using lb::GammaNet;
using lb::Party;
using sim::Round;

bool hasEdge(const std::vector<net::Edge>& edges, sim::NodeId a, sim::NodeId b) {
  for (const auto& e : edges) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
      return true;
    }
  }
  return false;
}

/// Renders one chain as the figure draws it: 'o' node, '|' present edge,
/// ':' removed edge.
std::string chainPicture(bool top_edge, bool bottom_edge) {
  std::string s = "o";
  s += top_edge ? '|' : ':';
  s += 'o';
  s += bottom_edge ? '|' : ':';
  s += 'o';
  return s;
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::quickMode(cli);  // deterministic and instant either way
  cli.rejectUnknown();
  const cc::Instance inst = cc::figure1Instance();
  std::cout << "Figure 1 reproduction — type-Γ subnetwork, "
            << cc::describe(inst) << "\n"
            << "(all middle nodes receiving; chains shown top-to-bottom as "
               "o|o|o; ':' = removed edge)\n\n";
  const GammaNet gamma(inst, 0);
  std::vector<sim::Action> receiving(static_cast<std::size_t>(gamma.numNodes()));

  for (Round r = 1; r <= 3; ++r) {
    util::Table table({"group (x_i,y_i)", "reference", "Alice's simulated",
                       "Bob's simulated"});
    std::vector<net::Edge> ref;
    gamma.appendReferenceEdges(r, receiving, ref);
    std::vector<net::Edge> alice;
    gamma.appendPartyEdges(Party::kAlice, r, alice);
    std::vector<net::Edge> bob;
    gamma.appendPartyEdges(Party::kBob, r, bob);
    for (int i = 0; i < gamma.groups(); ++i) {
      char label[64];
      std::snprintf(label, sizeof(label), "i=%d (%d,%d)", i, gamma.topLabel(i),
                    gamma.bottomLabel(i));
      auto pic = [&](const std::vector<net::Edge>& edges) {
        return chainPicture(hasEdge(edges, gamma.top(i, 0), gamma.mid(i, 0)),
                            hasEdge(edges, gamma.mid(i, 0), gamma.bottom(i, 0)));
      };
      table.row().cell(label).cell(pic(ref)).cell(pic(alice)).cell(pic(bob));
    }
    std::cout << "Round " << r << ":\n" << table.toString() << "\n";
  }

  // Verify the §4 narrative claims against the generated schedules.
  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    std::cout << (cond ? "  [ok] " : "  [FAIL] ") << what << "\n";
    failures += cond ? 0 : 1;
  };
  std::vector<net::Edge> ref1, bob1, alice1, ref2;
  gamma.appendReferenceEdges(1, receiving, ref1);
  gamma.appendReferenceEdges(2, receiving, ref2);
  gamma.appendPartyEdges(Party::kBob, 1, bob1);
  gamma.appendPartyEdges(Party::kAlice, 1, alice1);
  expect(!hasEdge(ref1, gamma.top(3, 0), gamma.mid(3, 0)) &&
             !hasEdge(ref1, gamma.mid(3, 0), gamma.bottom(3, 0)),
         "reference removes both edges of |0,0 chains in round 1");
  expect(hasEdge(ref1, gamma.zeroLineMids()[0], gamma.zeroLineMids()[1]),
         "reference arranges the |0,0 middles into a line");
  expect(!hasEdge(bob1, gamma.mid(2, 0), gamma.bottom(2, 0)) &&
             hasEdge(ref1, gamma.mid(2, 0), gamma.bottom(2, 0)) &&
             !hasEdge(ref2, gamma.mid(2, 0), gamma.bottom(2, 0)),
         "Bob removes |1,0 bottoms in round 1; reference waits for round 2");
  expect(!hasEdge(alice1, gamma.top(3, 0), gamma.mid(3, 0)) &&
             hasEdge(alice1, gamma.mid(3, 0), gamma.bottom(3, 0)),
         "Alice cannot see whether |0,0 bottoms are removed (the '?' region)");
  expect(gamma.numNodes() == 26, "type-Γ has (3/2)n(q-1)+2 = 26 nodes");
  std::cout << (failures == 0 ? "\nAll Figure 1 claims verified.\n"
                              : "\nFAILURES present.\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::bench::guardedMain(argc, argv, dynet::run);
}
