// dynet_stats — summarize and diff metrics.json files emitted by the
// observability layer (dynet_cli / benches with --metrics-out).
//
//   $ dynet_stats --in metrics.json
//       counters and gauges as tables; every series and histogram as
//       count / mean / p50 / p95 / p99 / max.
//
//   $ dynet_stats --in metrics.json --baseline old_metrics.json
//       two-run diff: counters and gauges side by side with deltas,
//       histograms (count / mean / p95) side by side — e.g. the campaign
//       scheduler's campaign// stage timings across two runs — plus
//       metrics present in only one of the runs.  Gauges under the
//       reserved soa// execution-shape prefix (state representation,
//       delivery direction) get their own section where a difference is
//       annotated as an expected configuration change, not a delta to
//       chase.
//
// Malformed input (not JSON, wrong schema version) exits 1 with a message.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace dynet {
namespace {

obs::Json loadMetrics(const std::string& path) {
  std::ifstream in(path);
  DYNET_CHECK(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::Json root;
  try {
    root = obs::Json::parse(buffer.str());
  } catch (const util::CheckError& e) {
    // Re-raise with the file named: a truncated metrics.json (killed
    // writer, partial download) must point at file + byte offset, not
    // read as an anonymous parser error.
    DYNET_CHECK(false) << path << ": malformed metrics JSON ("
                       << buffer.str().size()
                       << " bytes read): " << e.message();
  }
  DYNET_CHECK(root.isObject() && root.has("dynet_metrics"))
      << path << " is not a dynet metrics.json file";
  return root;
}

/// Percentile estimate from an exported histogram (same linear
/// interpolation as obs::Histogram::percentileEstimate, reconstructed from
/// the JSON bounds/counts/min/max fields).
double histogramPercentile(const obs::Json& h, double p) {
  const auto& bounds = h.at("bounds").items();
  const auto& counts = h.at("counts").items();
  const double total = h.at("count").number();
  const double lo = h.at("min").number();
  const double hi = h.at("max").number();
  if (total <= 0) {
    return 0;
  }
  const double rank = p * total;
  double seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double c = counts[i].number();
    if (c == 0) {
      continue;
    }
    if (seen + c >= rank) {
      const double bucket_lo =
          i == 0 ? lo : std::max(lo, bounds[i - 1].number());
      const double bucket_hi =
          i < bounds.size() ? std::min(hi, bounds[i].number()) : hi;
      const double frac = (rank - seen) / c;
      const double x = bucket_lo + frac * (bucket_hi - bucket_lo);
      return std::min(hi, std::max(lo, x));
    }
    seen += c;
  }
  return hi;
}

void printSummary(const obs::Json& root) {
  const auto& counters = root.at("counters").members();
  if (!counters.empty()) {
    util::Table table({"counter", "value"});
    for (const auto& [name, value] : counters) {
      table.row().cell(name).cell(
          static_cast<std::uint64_t>(value.number()));
    }
    std::cout << table.toString() << "\n";
  }
  const auto& gauges = root.at("gauges").members();
  if (!gauges.empty()) {
    util::Table table({"gauge", "value"});
    for (const auto& [name, value] : gauges) {
      table.row().cell(name).cell(value.number(), 3);
    }
    std::cout << table.toString() << "\n";
  }
  const auto& series = root.at("series").members();
  if (!series.empty()) {
    util::Table table(
        {"series", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, values] : series) {
      util::Summary summary;
      for (const obs::Json& v : values.items()) {
        summary.add(v.number());
      }
      auto& row = table.row().cell(name).cell(
          static_cast<std::int64_t>(summary.count()));
      if (summary.count() == 0) {
        row.cell("-").cell("-").cell("-").cell("-").cell("-");
      } else {
        row.cell(summary.mean(), 2)
            .cell(summary.median(), 2)
            .cell(summary.p95(), 2)
            .cell(summary.p99(), 2)
            .cell(summary.max(), 2);
      }
    }
    std::cout << table.toString() << "\n";
  }
  const auto& histograms = root.at("histograms").members();
  if (!histograms.empty()) {
    util::Table table(
        {"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : histograms) {
      const double count = h.at("count").number();
      auto& row =
          table.row().cell(name).cell(static_cast<std::int64_t>(count));
      if (count <= 0) {
        row.cell("-").cell("-").cell("-").cell("-").cell("-");
      } else {
        row.cell(h.at("sum").number() / count, 2)
            .cell(histogramPercentile(h, 0.50), 2)
            .cell(histogramPercentile(h, 0.95), 2)
            .cell(histogramPercentile(h, 0.99), 2)
            .cell(h.at("max").number(), 2);
      }
    }
    std::cout << table.toString() << "\n";
  }
}

/// Execution-shape gauges live under the reserved `soa//` prefix
/// (docs/OBSERVABILITY.md): they describe WHICH engine path ran (state
/// representation, delivery direction), not what the run computed, so a
/// delta between two runs is a configuration difference, never a semantic
/// regression.
bool isShapeGauge(const std::string& name) {
  return name.rfind("soa//", 0) == 0;
}

/// Diffs one scalar section ("counters" or "gauges") of two runs: values
/// side by side with the delta, and rows for one-sided metrics.  Gauges
/// under the soa// execution-shape prefix are excluded here and diffed by
/// printShapeDiff instead.
void printScalarDiff(const std::string& section, const obs::Json& current,
                     const obs::Json& baseline) {
  const bool gauges = section == "gauges";
  const auto& cur = current.at(section).members();
  const auto& base = baseline.at(section).members();
  util::Table table({section.substr(0, section.size() - 1), "baseline",
                     "current", "delta"});
  bool any = false;
  for (const auto& [name, value] : cur) {
    if (gauges && isShapeGauge(name)) {
      continue;
    }
    auto& row = table.row().cell(name);
    const auto it = base.find(name);
    if (it == base.end()) {
      row.cell("-").cell(value.number(), 3).cell("(new)");
    } else {
      const double delta = value.number() - it->second.number();
      row.cell(it->second.number(), 3)
          .cell(value.number(), 3)
          .cell(delta, 3);
    }
    any = true;
  }
  for (const auto& [name, value] : base) {
    if (gauges && isShapeGauge(name)) {
      continue;
    }
    if (cur.find(name) == cur.end()) {
      table.row().cell(name).cell(value.number(), 3).cell("-").cell(
          "(removed)");
      any = true;
    }
  }
  if (any) {
    std::cout << table.toString() << "\n";
  }
}

/// Diffs the soa// execution-shape gauges of two runs.  Differences are
/// annotated as expected configuration changes rather than deltas, and a
/// change in soa//active (which state representation ran) gets an explicit
/// note: the byte-identity contract says every semantic metric above must
/// still match even when the shapes differ.
void printShapeDiff(const obs::Json& current, const obs::Json& baseline) {
  const auto& cur = current.at("gauges").members();
  const auto& base = baseline.at("gauges").members();
  util::Table table(
      {"execution shape (soa//)", "baseline", "current", "note"});
  bool any = false;
  bool representation_changed = false;
  for (const auto& [name, value] : cur) {
    if (!isShapeGauge(name)) {
      continue;
    }
    auto& row = table.row().cell(name);
    const auto it = base.find(name);
    if (it == base.end()) {
      row.cell("-").cell(value.number(), 3).cell("(current only)");
    } else if (value.number() == it->second.number()) {
      row.cell(it->second.number(), 3).cell(value.number(), 3).cell("(same)");
    } else {
      row.cell(it->second.number(), 3)
          .cell(value.number(), 3)
          .cell("(differs: expected)");
      if (name == "soa//active") {
        representation_changed = true;
      }
    }
    any = true;
  }
  for (const auto& [name, value] : base) {
    if (!isShapeGauge(name) || cur.find(name) != cur.end()) {
      continue;
    }
    table.row().cell(name).cell(value.number(), 3).cell("-").cell(
        "(baseline only)");
    any = true;
  }
  if (!any) {
    return;
  }
  std::cout << table.toString() << "\n";
  if (representation_changed) {
    std::cout << "note: the two runs used different state representations"
                 " (soa//active changed); soa// gauges describe execution"
                 " shape and are expected to differ, but every semantic"
                 " metric must still match byte for byte.\n\n";
  }
}

/// Diffs the histograms of two runs: count, mean, and p95 side by side.
/// Wall-clock profiles (prof/, campaign//) never match exactly, so the
/// diff shows distribution movement instead of raw deltas.
void printHistogramDiff(const obs::Json& current, const obs::Json& baseline) {
  const auto& cur = current.at("histograms").members();
  const auto& base = baseline.at("histograms").members();
  if (cur.empty() && base.empty()) {
    return;
  }
  const auto pair = [](const obs::Json* b, const obs::Json* c,
                       double (*stat)(const obs::Json&)) {
    std::ostringstream out;
    out << std::fixed << std::setprecision(2);
    if (b == nullptr) {
      out << "-";
    } else {
      out << stat(*b);
    }
    out << " / ";
    if (c == nullptr) {
      out << "-";
    } else {
      out << stat(*c);
    }
    return out.str();
  };
  const auto statCount = [](const obs::Json& h) {
    return h.at("count").number();
  };
  const auto statMean = [](const obs::Json& h) {
    const double count = h.at("count").number();
    return count > 0 ? h.at("sum").number() / count : 0.0;
  };
  const auto statP95 = [](const obs::Json& h) {
    return histogramPercentile(h, 0.95);
  };
  std::vector<std::string> names;
  for (const auto& [name, h] : cur) {
    names.push_back(name);
  }
  for (const auto& [name, h] : base) {
    if (cur.find(name) == cur.end()) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  util::Table table({"histogram", "count (base/cur)", "mean (base/cur)",
                     "p95 (base/cur)"});
  for (const std::string& name : names) {
    const auto ci = cur.find(name);
    const auto bi = base.find(name);
    const obs::Json* c = ci == cur.end() ? nullptr : &ci->second;
    const obs::Json* b = bi == base.end() ? nullptr : &bi->second;
    table.row()
        .cell(name)
        .cell(pair(b, c, statCount))
        .cell(pair(b, c, statMean))
        .cell(pair(b, c, statP95));
  }
  std::cout << table.toString() << "\n";
}

int run(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string in_path = cli.str("in", "");
  const std::string baseline_path = cli.str("baseline", "");
  cli.rejectUnknown();
  if (in_path.empty()) {
    std::cerr << "usage: dynet_stats --in metrics.json"
                 " [--baseline old_metrics.json]\n";
    return 2;
  }
  const obs::Json current = loadMetrics(in_path);
  if (baseline_path.empty()) {
    printSummary(current);
    return 0;
  }
  const obs::Json baseline = loadMetrics(baseline_path);
  printScalarDiff("counters", current, baseline);
  printScalarDiff("gauges", current, baseline);
  printShapeDiff(current, baseline);
  printHistogramDiff(current, baseline);
  return 0;
}

}  // namespace
}  // namespace dynet

int main(int argc, char** argv) {
  try {
    return dynet::run(argc, argv);
  } catch (const dynet::util::CheckError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
