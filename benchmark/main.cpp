// dynet_bench: runs one benchmark workload and reports its metrics.
//
//   dynet_bench --workload W [--seed S] [--seconds T] [--trace 0|1]
//               [--smoke] [--out FILE] [--chrome-trace FILE]
//
// Run from the checkout root: the metric catalog is BENCHMARK.json there,
// and scratch files go under build-bench/work.  Untraced runs (--trace 0)
// report the end-to-end metrics of the catalog.  Traced runs run every op
// untraced and then again with a metrics sink and trace writer attached,
// one mix of ops at a time, and report the per-layer metrics, including
// the tracing overhead.  Every metric is printed by name with its unit; the
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}.  The exit code is 0 only when every op and set-up passed its
// correctness gate.  benchmark/run.sh builds dynet_bench and is the usual
// way to run it.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "campaign/spec.h"
#include "measure.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/cli.h"
#include "workloads.h"

namespace dynet::bench {
namespace {

namespace fs = std::filesystem;

constexpr const char* kCatalog = "BENCHMARK.json";
constexpr const char* kWorkRoot = "build-bench/work";
// Set-ups per run, reported as their median.
constexpr std::size_t kSetups = 15;
// The output digest covers at least this many leading ops.
constexpr std::uint64_t kDigestOps = 8;
// The quantile of each op class's cost per node-round that the throughput
// metrics take (Measurement::fastMs).  Over 10-run sets the run-to-run
// spread was about as low at 0.05 as at the minimum, and rose at 0.1 and
// above.
constexpr double kFastQuantile = 0.05;

struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Catalog {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

Catalog loadCatalog(const std::string& path) {
  std::ifstream in(path);
  DYNET_CHECK(in.good()) << "cannot read the metric catalog " << path;
  std::stringstream text;
  text << in.rdbuf();
  const obs::Json json = obs::Json::parse(text.str());
  const auto read = [&](const char* key) {
    std::vector<MetricSpec> out;
    for (const obs::Json& m : json.at(key).items()) {
      out.push_back({m.at("name").str(), m.at("unit").str()});
    }
    return out;
  };
  return {read("end_to_end"), read("per_layer")};
}

struct Measurement {
  std::vector<double> setup_s;
  // Per op in run order, untraced.
  std::vector<double> op_ms;
  std::vector<double> node_rounds;
  std::vector<std::uint64_t> digests;
  double traced_s = 0;  // the ops' traced reruns
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  double opSeconds() const {
    return std::accumulate(op_ms.begin(), op_ms.end(), 0.0) / 1e3;
  }

  double nodeRounds() const {
    return std::accumulate(node_rounds.begin(), node_rounds.end(), 0.0);
  }

  // The run's op time at the fast end of each op class.  Op i is of class
  // i % mix: one adversary of the leader mix, one step index of a flood
  // trial, one cell of the gadget grid, ...; ops of one class do the same
  // kind of work.  Each class's cost per node-round is taken at
  // kFastQuantile over its ops, and every op is charged its node-rounds at
  // that cost.  A shared machine slows this program by up to 1.5x for
  // tens of milliseconds to minutes at a time, as other tenants come and
  // go; the fast end of each class moves least between runs
  // (benchmark/README.md).  An op that threw ran no node-rounds and
  // counts for nothing.
  double fastMs(std::uint64_t mix) const {
    std::vector<std::vector<double>> cost(mix);
    for (std::size_t i = 0; i < op_ms.size(); ++i) {
      if (node_rounds[i] > 0) {
        cost[i % mix].push_back(op_ms[i] / node_rounds[i]);
      }
    }
    std::vector<double> fast;
    for (const std::vector<double>& c : cost) {
      fast.push_back(quantile(c, kFastQuantile));
    }
    double ms = 0;
    for (std::size_t i = 0; i < op_ms.size(); ++i) {
      ms += node_rounds[i] * fast[i % mix];
    }
    return ms;
  }

  // Runs op i once and books the outcome; a traced rerun must reproduce
  // the untraced run's output digest.
  OpResult attempt(Workload& workload, std::uint64_t i, Tracing* tracing) {
    OpResult r;
    try {
      r = workload.op(i, tracing);
    } catch (const std::exception& e) {
      r.failure = "op " + std::to_string(i) + " threw: " + e.what();
    }
    ++attempted;
    if (r.failure.empty() && i < digests.size() && r.digest != digests[i]) {
      r.failure = "op " + std::to_string(i) + ": output differs between runs";
    }
    if (!r.failure.empty()) {
      ++failed;
      if (failures.size() < 10) {
        failures.push_back(r.failure);
      }
    }
    return r;
  }
};

// Runs the distinct ops 0, 1, ... once each, until `seconds` have passed,
// the digest's ops ran, and the workload's last mix is complete.  The
// first of `setups` set-ups runs before op 0; the others are spread over
// the run at mix boundaries, so that no single slow episode of a shared
// machine covers them all.  With `tracing`, each mix reruns traced right
// away (ops of one mix may share state, like the steps of a flood trial),
// so drift on the machine cannot pass for tracing overhead.
Measurement measure(Workload& workload, double seconds, std::size_t setups,
                    Tracing* tracing) {
  Measurement m;
  const double run_ms = seconds * 1e3;
  const Clock::time_point start = Clock::now();
  m.setup_s.push_back(workload.setup());
  const std::uint64_t mix = workload.passLength();  // known after set-up
  for (std::uint64_t i = 0;
       i < kDigestOps || i % mix != 0 || msSince(start) < run_ms; ++i) {
    if (i % mix == 0 && m.setup_s.size() < setups &&
        msSince(start) >= run_ms * static_cast<double>(m.setup_s.size()) /
                              static_cast<double>(setups)) {
      m.setup_s.push_back(workload.setup());
    }
    const OpResult r = m.attempt(workload, i, nullptr);
    m.op_ms.push_back(r.ms);
    m.node_rounds.push_back(r.node_rounds);
    m.digests.push_back(r.digest);
    if (tracing != nullptr && (i + 1) % mix == 0) {
      for (std::uint64_t j = i + 1 - mix; j <= i; ++j) {
        m.traced_s += m.attempt(workload, j, tracing).ms / 1e3;
      }
    }
  }
  while (m.setup_s.size() < setups) {
    m.setup_s.push_back(workload.setup());
  }
  return m;
}

std::string formatNumber(double v) {
  std::ostringstream out;
  obs::writeJsonNumber(out, v);
  return out.str();
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string name = cli.str("workload", "");
  Options options;
  options.seed = static_cast<std::uint64_t>(cli.integer("seed", 1));
  options.smoke = cli.flag("smoke");
  const double seconds = cli.real("seconds", options.smoke ? 1.0 : 20.0);
  const bool traced = cli.integer("trace", 0) != 0;
  const std::string out_path = cli.str("out", "");
  const std::string chrome_path = cli.str("chrome-trace", "");
  cli.rejectUnknown();
  DYNET_CHECK(seconds > 0) << "--seconds must be positive";

  const Catalog catalog = loadCatalog(kCatalog);
  options.work_dir =
      (fs::path(kWorkRoot) / (name + "-" + std::to_string(::getpid())))
          .string();
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);
  const std::unique_ptr<Workload> workload = makeWorkload(name, options);

  // Traced runs make one pass in which every mix runs untraced and then
  // traced: the time difference is the tracing overhead.
  Tracing tracing;
  tracing.chrome_trace_path = chrome_path;
  const Measurement m =
      measure(*workload, seconds, options.smoke ? 1 : kSetups,
              traced ? &tracing : nullptr);
  Digest digest;
  for (std::uint64_t i = 0;
       i < std::max(kDigestOps, workload->passLength()); ++i) {
    digest.add(m.digests[i]);
  }
  const std::string environment = environmentJson(options.work_dir);
  fs::remove_all(options.work_dir);

  // Each set-up reports its problems; list each one once.
  std::vector<std::string> failures;
  for (const std::string& f : workload->setup_failures) {
    if (std::find(failures.begin(), failures.end(), f) == failures.end()) {
      failures.push_back(f);
    }
  }
  failures.insert(failures.end(), m.failures.begin(), m.failures.end());
  const std::uint64_t attempted = m.attempted;
  const std::uint64_t failed = m.failed;

  std::map<std::string, double> values;
  const std::size_t ops = m.op_ms.size();
  const std::uint64_t mix = workload->passLength();
  const double fast_s = m.fastMs(mix) / 1e3;
  values["setup_s"] = quantile(m.setup_s, 0.5);
  values["ops_per_s"] = static_cast<double>(ops) / fast_s;
  values["node_rounds_per_s"] = m.nodeRounds() / fast_s;
  values["peak_rss_mb"] = peakRssMb();
  double coverage = 0;
  if (traced) {
    const PhaseLedger& ledger = tracing.ledger;
    ledger.report(values);
    workload->layerMetrics(values);
    values["obs.traced_slowdown"] = m.traced_s / m.opSeconds() - 1.0;
    coverage = ledger.spanCoverage();
    if (ledger.runs > 0 && std::abs(coverage - 1.0) > 0.02) {
      failures.push_back("phase spans cover " + formatNumber(coverage) +
                         " of the step time, not 1 +- 0.02");
    }
  }
  const bool correct = failures.empty() && failed == 0;

  // Human-readable report.
  std::cout << "workload " << name << "  seed " << options.seed << "  seconds "
            << seconds << (traced ? "  traced" : "")
            << (options.smoke ? "  smoke" : "") << "\n";
  const std::vector<MetricSpec>& reported =
      traced ? catalog.per_layer : catalog.end_to_end;
  std::ostringstream metrics_json;
  metrics_json << "{";
  for (std::size_t k = 0; k < reported.size(); ++k) {
    const MetricSpec& spec = reported[k];
    const auto it = values.find(spec.name);
    // A layer the workload never runs reports 0; an end-to-end metric is
    // always measured.
    DYNET_CHECK(traced || it != values.end())
        << "end-to-end metric " << spec.name << " was not measured";
    const double v = it != values.end() ? values.at(spec.name) : 0.0;
    char line[160];
    std::snprintf(line, sizeof line, "  %-36s %14.6g %s", spec.name.c_str(), v,
                  spec.unit.c_str());
    std::cout << line;
    if (spec.name == "ops_per_s" || spec.name == "node_rounds_per_s") {
      std::cout << "  (fast end of " << mix
                << (mix == 1 ? " op class, " : " op classes, ") << ops
                << " ops)";
    } else if (spec.name == "setup_s") {
      std::cout << "  (median of " << m.setup_s.size() << " set-ups)";
    }
    std::cout << "\n";
    metrics_json << (k > 0 ? ", " : "") << "\"" << spec.name
                 << "\": {\"value\": " << formatNumber(v) << ", \"unit\": \""
                 << spec.unit << "\"}";
  }
  metrics_json << "}";
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::cout << "  error_rate " << formatNumber(error_rate) << " fraction  ("
            << failed << " of " << attempted << " ops failed)\n"
            << "  output_digest " << campaign::hashHex(digest.value()) << "\n";
  std::ostringstream facts_json;
  const char* separator = "";
  for (const auto& [fact, v] : workload->facts) {
    std::cout << "  " << fact << " " << formatNumber(v) << "\n";
    facts_json << separator << "\"" << fact << "\": " << formatNumber(v);
    separator = ", ";
  }
  if (traced) {
    std::cout << "  phase span coverage " << formatNumber(coverage) << "\n";
  }
  for (const std::string& f : failures) {
    std::cout << "  FAILED: " << f << "\n";
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    DYNET_CHECK(out.good()) << "cannot write " << out_path;
    out << "{\"workload\": \"" << name << "\", \"seed\": " << options.seed
        << ", \"seconds\": " << formatNumber(seconds)
        << ", \"traced\": " << (traced ? "true" : "false")
        << ", \"smoke\": " << (options.smoke ? "true" : "false")
        << ",\n \"environment\": " << environment
        << ",\n \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"error_rate\": " << formatNumber(error_rate)
        << ", \"output_digest\": \"" << campaign::hashHex(digest.value())
        << "\", \"ops\": " << m.op_ms.size() << ", \"op_classes\": " << mix
        << ", \"setups\": " << m.setup_s.size()
        << ",\n \"facts\": {" << facts_json.str() << "},\n \"failures\": [";
    for (std::size_t f = 0; f < failures.size(); ++f) {
      out << (f > 0 ? ", " : "");
      obs::writeJsonString(out, failures[f]);
    }
    out << "],\n \"metrics\": " << metrics_json.str() << "}\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json.str() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dynet::bench

int main(int argc, char** argv) {
  try {
    return dynet::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dynet_bench: " << e.what() << "\n";
    return 2;
  }
}
