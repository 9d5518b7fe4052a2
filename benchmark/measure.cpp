#include "measure.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "dataset/trace.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/stats.h"

#ifndef DYNET_BENCH_BUILD_TYPE
#define DYNET_BENCH_BUILD_TYPE "unknown"
#endif

namespace dynet::bench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// Campaign commits fsync, so their cost depends on the filesystem under
// the work directory; name the common ones.
std::string filesystemType(const std::string& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x6969UL:
      return "nfs";
    case 0x65735546UL:
      return "fuse";
    default: {
      std::ostringstream hex;
      hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
      return hex.str();
    }
  }
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double quantile(const std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;  // a layer the workload never ran
  }
  util::Summary summary;
  for (const double v : values) {
    summary.add(v);
  }
  return summary.percentile(q);
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string environmentJson(const std::string& work_dir) {
  const char* commit = std::getenv("DYNET_BENCH_COMMIT");
  std::ostringstream out;
  out << "{\"compiler\": ";
  obs::writeJsonString(out, compilerName());
  out << ", \"build_type\": ";
  obs::writeJsonString(out, DYNET_BENCH_BUILD_TYPE);
  out << ", \"cpu\": ";
  obs::writeJsonString(out, cpuModel());
  out << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"work_fs\": ";
  obs::writeJsonString(out, filesystemType(work_dir));
  out << ", \"commit\": ";
  obs::writeJsonString(out, commit != nullptr && *commit != '\0' ? commit
                                                                 : "unknown");
  out << "}";
  return out.str();
}

void Digest::add(std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(v >> (8 * i));  // little-endian everywhere
  }
  state_ = dataset::fnv1a64(std::string_view(bytes, sizeof bytes), state_);
}

net::GraphPtr TimedAdversary::topology(sim::Round round,
                                       const sim::RoundObservation& obs) {
  const Clock::time_point t0 = Clock::now();
  net::GraphPtr g = inner_->topology(round, obs);
  record(round, msSince(t0) * 1e3);
  return g;
}

bool TimedAdversary::topologyUpdate(sim::Round round,
                                    const sim::RoundObservation& obs,
                                    const net::GraphPtr& prev,
                                    sim::TopologyUpdate& out) {
  const Clock::time_point t0 = Clock::now();
  const bool handled = inner_->topologyUpdate(round, obs, prev, out);
  record(round, msSince(t0) * 1e3);
  if (handled && out.is_delta) {
    tally_->edges_changed += out.edges_added + out.edges_removed;
  }
  return handled;
}

void TimedAdversary::record(sim::Round round, double us) {
  tally_->total_us += us;
  if (round == 1) {
    tally_->first_call_ms += us / 1e3;
  }
}

double PhaseLedger::spanCoverage() const {
  return ratio(fault_us + compute_us + adversary_us + delivery_us + tail_us,
               step_us);
}

void PhaseLedger::report(std::map<std::string, double>& out) const {
  const auto nr = static_cast<double>(node_rounds);
  const auto r = static_cast<double>(rounds);
  out["sim.engine_ctor_us_p50"] = quantile(ctor_us_samples, 0.5);
  out["sim.step_us_p50"] = quantile(step_us_samples, 0.5);
  out["sim.ns_per_node_round"] = ratio(step_us * 1e3, nr);
  out["sim.soa_op_share"] =
      ratio(static_cast<double>(soa_runs), static_cast<double>(runs));
  out["sim.fault_share"] = ratio(fault_us, step_us);
  out["sim.compute_share"] = ratio(compute_us, step_us);
  out["sim.compute_ns_per_node_round"] = ratio(compute_us * 1e3, nr);
  out["sim.adversary_share"] = ratio(adversary_us, step_us);
  out["sim.delivery_share"] = ratio(delivery_us, step_us);
  out["sim.delivery_ns_per_message"] =
      ratio(delivery_us * 1e3, static_cast<double>(messages));
  out["sim.observe_share"] = ratio(
      std::max(0.0, step_us - fault_us - compute_us - adversary_us -
                        delivery_us),
      step_us);
  out["adversary.topology_us_per_round"] = ratio(decorator_us, r);
  out["adversary.delta_round_share"] =
      ratio(static_cast<double>(delta_rounds), r);
  out["adversary.edges_changed_per_round"] =
      ratio(static_cast<double>(edges_changed), r);
  out["adversary.seek_ms_p50"] = quantile(seek_ms_samples, 0.5);
  out["net.topology_check_us_per_round"] =
      ratio(std::max(0.0, adversary_us - decorator_us), r);
  out["net.cold_warms_per_round"] = ratio(static_cast<double>(cold_warms), r);
  out["protocols.messages_per_node_round"] =
      ratio(static_cast<double>(messages), nr);
  out["protocols.bits_per_message"] =
      ratio(static_cast<double>(bits), static_cast<double>(messages));
}

std::unique_ptr<sim::Adversary> TracedRun::wrap(
    std::unique_ptr<sim::Adversary> adversary) {
  return std::make_unique<TimedAdversary>(std::move(adversary), &tally_);
}

double TracedRun::timedStep(sim::Engine& engine) {
  const double t0 = trace_.nowUs();
  engine.step();
  const double t1 = trace_.nowUs();
  step_end_us_.push_back(t1);
  step_us_.push_back(t1 - t0);
  return t1 - t0;
}

void TracedRun::finish(const sim::Engine& engine, double ctor_us,
                       PhaseLedger& ledger,
                       const std::string& chrome_trace_path) const {
  DYNET_CHECK(trace_.dropped() == 0)
      << trace_.dropped() << " trace event(s) dropped";
  std::size_t deliveries = 0;
  for (const obs::TraceEvent& e : trace_.events()) {
    if (e.ph != 'X') {
      continue;
    }
    if (e.name == "fault_hook") {
      ledger.fault_us += e.dur_us;
    } else if (e.name == "process_step") {
      ledger.compute_us += e.dur_us;
    } else if (e.name == "adversary_pick") {
      ledger.adversary_us += e.dur_us;
    } else if (e.name == "delivery") {
      ledger.delivery_us += e.dur_us;
      DYNET_CHECK(deliveries < step_end_us_.size())
          << "more delivery spans than steps";
      ledger.tail_us += step_end_us_[deliveries] - (e.ts_us + e.dur_us);
      ++deliveries;
    }
  }
  DYNET_CHECK(deliveries == step_end_us_.size())
      << deliveries << " delivery spans for " << step_end_us_.size()
      << " steps";
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto& counters = sink_.registry.counters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value;
  };
  const sim::RunResult& r = engine.result();
  for (const double us : step_us_) {
    ledger.step_us += us;
    ledger.step_us_samples.push_back(us);
  }
  ledger.decorator_us += tally_.total_us;
  ledger.edges_changed += tally_.edges_changed;
  ledger.seek_ms_samples.push_back(tally_.first_call_ms);
  ledger.ctor_us_samples.push_back(ctor_us);
  ledger.rounds += static_cast<std::uint64_t>(r.rounds_executed);
  ledger.node_rounds += static_cast<std::uint64_t>(r.rounds_executed) *
                        static_cast<std::uint64_t>(engine.numNodes());
  ledger.messages += r.messages_sent;
  ledger.bits += r.bits_sent;
  ledger.delta_rounds += counter("topology/incremental_rounds");
  ledger.cold_warms += counter("topology/cold_warms");
  ++ledger.runs;
  ledger.soa_runs += engine.soaActive() ? 1 : 0;
  if (!chrome_trace_path.empty()) {
    std::ofstream out(chrome_trace_path);
    DYNET_CHECK(out.good()) << "cannot open " << chrome_trace_path;
    trace_.writeChromeTrace(out);
  }
}

RunSummary runEngine(const std::function<EngineSpec()>& make,
                     PhaseLedger* ledger,
                     const std::string& chrome_trace_path) {
  std::optional<TracedRun> traced;
  if (ledger != nullptr) {
    traced.emplace();
  }
  RunSummary out;
  const Clock::time_point t0 = Clock::now();
  EngineSpec spec = make();
  if (traced) {
    spec.config.metrics = traced->sink();
    spec.adversary = traced->wrap(std::move(spec.adversary));
  }
  const Clock::time_point t_ctor = Clock::now();
  sim::Engine engine(*spec.factory, std::move(spec.adversary), spec.config,
                     spec.seed);
  if (spec.injector != nullptr) {
    engine.setFaultInjector(spec.injector);
  }
  const double ctor_us = msSince(t_ctor) * 1e3;
  if (traced) {
    // Engine::run's loop, one timed step at a time.
    while (engine.currentRound() < spec.config.max_rounds &&
           !(spec.config.stop_when_all_done && engine.result().all_done)) {
      traced->timedStep(engine);
    }
    engine.finalizeMetrics();
  } else {
    engine.run();
  }
  out.ms = msSince(t0);
  if (traced) {
    traced->finish(engine, ctor_us, *ledger, chrome_trace_path);
  }
  out.result = engine.result();
  Digest digest;
  out.outputs.reserve(static_cast<std::size_t>(engine.numNodes()));
  for (sim::NodeId v = 0; v < engine.numNodes(); ++v) {
    out.outputs.push_back(engine.nodeOutput(v));
    digest.add(engine.stateDigest(v));
  }
  out.state_digest = digest.value();
  return out;
}

}  // namespace dynet::bench
