// trace_to_dot — render rounds of a recorded execution as Graphviz DOT.
//
//   $ dynet_cli --protocol flood --adversary random_tree --trace run.trace
//   $ trace_to_dot --in run.trace --round 3            # one round to stdout
//   $ trace_to_dot --in run.trace --all --out-prefix r # r1.dot, r2.dot, ...
//
// Senders are drawn as filled boxes, receivers as circles, so an animation
// of the DOT sequence shows the send/receive pattern alongside the churn.
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "sim/trace.h"
#include "util/check.h"
#include "util/cli.h"

namespace dynet {
namespace {

void emitRound(std::ostream& out, const sim::Trace& trace, sim::Round round) {
  DYNET_CHECK(round >= 1 && round <= trace.rounds())
      << "round " << round << " outside trace (1.." << trace.rounds() << ")";
  const auto& graph = *trace.topologies[static_cast<std::size_t>(round - 1)];
  out << "graph round_" << round << " {\n";
  out << "  layout=circo;\n  label=\"round " << round << "\";\n";
  for (sim::NodeId v = 0; v < trace.num_nodes; ++v) {
    bool sends = false;
    if (!trace.actions.empty()) {
      sends = trace.actions[static_cast<std::size_t>(round - 1)]
                           [static_cast<std::size_t>(v)]
                               .send;
    }
    out << "  n" << v << " [label=\"" << v << "\""
        << (sends ? ", shape=box, style=filled, fillcolor=\"#e8b84b\""
                  : ", shape=circle")
        << "];\n";
  }
  for (const net::Edge& e : graph.edges()) {
    out << "  n" << e.a << " -- n" << e.b << ";\n";
  }
  out << "}\n";
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string in_path = cli.str("in", "");
  const auto round = static_cast<sim::Round>(
      cli.integer("round", 1, 1, std::numeric_limits<int>::max()));
  const bool all = cli.flag("all");
  const std::string out_prefix = cli.str("out-prefix", "round");
  cli.rejectUnknown();
  DYNET_CHECK(!in_path.empty()) << "--in <trace file> is required";

  std::ifstream in(in_path);
  DYNET_CHECK(in.good()) << "cannot open " << in_path;
  const sim::Trace trace = sim::readTrace(in);

  if (!all) {
    emitRound(std::cout, trace, round);
    return 0;
  }
  for (sim::Round r = 1; r <= trace.rounds(); ++r) {
    std::ostringstream name;
    name << out_prefix << r << ".dot";
    std::ofstream out(name.str());
    DYNET_CHECK(out.good()) << "cannot open " << name.str();
    emitRound(out, trace, r);
  }
  std::cout << trace.rounds() << " DOT files written with prefix '"
            << out_prefix << "'\n";
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  try {
    return dynet::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
