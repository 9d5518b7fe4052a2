// E8 — Theorem 1 / Corollary 2: DISJOINTNESSCP communication accounting.
//
// Measures the exact bits of the two implemented (0-error) upper-bound
// protocols over random promise instances, against the Ω(n/q²) lower-bound
// formula.  Also prints the parameter map Theorem 6 uses (q = 120s+1,
// n = (N-4)/(3q)) so the reduction arithmetic is visible.
#include <iostream>
#include <limits>

#include "bench_common.h"
#include "cc/channel.h"
#include "cc/disjointness_cp.h"
#include "cc/trivial_protocols.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace dynet {
namespace {

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = cli.flag("quick");
  const int trials = static_cast<int>(
      cli.integer("trials", quick ? 5 : 20, 1,
                  std::numeric_limits<int>::max()));
  cli.rejectUnknown();

  std::cout << "E8 — DISJOINTNESSCP communication (Theorem 1 from [4])\n\n";
  {
    util::Table table({"n", "q", "LB formula n/q^2 - log n", "send-all bits",
                       "zero-positions bits (mean)", "correct"});
    util::Rng rng(11);
    const std::vector<int> ns = quick
                                    ? std::vector<int>{1 << 10, 1 << 14}
                                    : std::vector<int>{1 << 10, 1 << 14, 1 << 18};
    for (const int n : ns) {
      for (const int q : {3, 9, 33, 129}) {
        util::Summary zero_bits;
        bool correct = true;
        std::uint64_t send_all_bits = 0;
        for (int t = 0; t < trials; ++t) {
          const cc::Instance inst =
              cc::randomInstance(n, q, rng, t % 2 == 0 ? 0 : 1);
          cc::CountedChannel ch1, ch2;
          const int a1 = cc::solveSendAll(inst, ch1);
          const int a2 = cc::solveZeroPositions(inst, ch2);
          correct = correct && a1 == cc::evaluate(inst) && a2 == a1;
          send_all_bits = ch1.totalBits();
          zero_bits.add(static_cast<double>(ch2.totalBits()));
        }
        table.row()
            .cell(n)
            .cell(q)
            .cell(cc::ccLowerBoundBits(n, q), 1)
            .cell(send_all_bits)
            .cell(zero_bits.mean(), 0)
            .cell(correct ? "yes" : "NO");
      }
    }
    std::cout << table.toString();
    std::cout << "\nReading: the lower-bound formula decays as q grows (the\n"
                 "cycle promise gets stronger) — exactly why Theorem 6 picks\n"
                 "q = Θ(s): a fast oracle forces a weak DISJOINTNESSCP\n"
                 "instance, which still costs more than the O(s log N)\n"
                 "simulation can afford once s is o((N/log N)^{1/4}).\n\n";
  }
  {
    std::cout
        << "Theorem 6 arithmetic (q = 120s+1, n = (N-4)/(3q)): the largest s\n"
           "still contradicted — i.e. where the DISJOINTNESSCP requirement\n"
           "n/q^2 - log n still exceeds the O(s log N) the simulation pays.\n\n";
    util::Table table({"N", "s* (crossover)", "q(s*)", "n(s*)",
                       "(N/logN)^(1/4)", "s* / (N/logN)^(1/4)"});
    for (const double n_nodes : {1e8, 1e10, 1e12, 1e14, 1e16}) {
      // Binary-search the crossover of  n/q^2 - log n  vs  s log N.
      auto slack = [&](double s) {
        const double q = 120 * s + 1;
        const double n_cc = (n_nodes - 4) / (3 * q);
        return n_cc / (q * q) - std::log2(n_cc) - s * std::log2(n_nodes);
      };
      double lo = 1, hi = std::pow(n_nodes, 0.25);
      for (int it = 0; it < 200; ++it) {
        const double mid = (lo + hi) / 2;
        (slack(mid) > 0 ? lo : hi) = mid;
      }
      const double envelope =
          std::pow(n_nodes / std::log2(n_nodes), 0.25);
      table.row()
          .cell(n_nodes, 0)
          .cell(lo, 1)
          .cell(120 * lo + 1, 0)
          .cell((n_nodes - 4) / (3 * (120 * lo + 1)), 0)
          .cell(envelope, 1)
          .cell(lo / envelope, 4);
    }
    std::cout << table.toString();
    std::cout
        << "\nReading: the crossover s* — the largest termination promise the\n"
           "reduction refutes — scales as a FIXED fraction of\n"
           "(N/log N)^{1/4} (last column constant across eight orders of\n"
           "magnitude).  Every protocol faster than s* would solve\n"
           "DISJOINTNESSCP below its communication lower bound; hence\n"
           "CFLOOD needs Ω((N/log N)^{1/4}) flooding rounds under unknown\n"
           "diameter (Theorem 6).\n";
  }
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  return dynet::bench::guardedMain(argc, argv, dynet::run);
}
