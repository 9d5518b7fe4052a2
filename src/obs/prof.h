// DYNET_PROF scoped wall-clock timers, aggregated into a MetricsRegistry.
//
// Drop DYNET_PROF("label"); at the top of a scope to time it.  When no
// registry is installed for the current thread the timer is a single
// branch on a thread-local pointer — hot paths can keep their probes
// compiled in.  When one is installed (ProfScope), each scope exit records
// into the same registry the engine metrics land in:
//
//   prof/<label>/calls     counter — number of scope executions
//   prof/<label>/total_us  counter — summed wall-clock microseconds
//   prof/<label>/us        histogram — per-call duration (profBucketsUs)
//
// Wall-clock values are inherently non-deterministic; everything under
// prof/ is therefore excluded from the metrics.json determinism guarantee
// (docs/OBSERVABILITY.md).  Installation is per-thread: BatchRunner
// workers see no registry unless they install their own.
#pragma once

#include <chrono>

#include "obs/metrics.h"

namespace dynet::obs {

/// The registry DYNET_PROF timers on this thread record into (may be null).
MetricsRegistry* profRegistry();

/// Records one duration sample in the DYNET_PROF metric shape —
/// `<prefix>/calls` and `<prefix>/total_us` counters plus a `<prefix>/us`
/// histogram (profBucketsUs).  ProfTimer uses it with `prof/<label>`; the
/// campaign scheduler uses it directly for its `campaign//<stage>` timing
/// attribution so both kinds of profile read identically in metrics.json.
void recordProfSample(MetricsRegistry& registry, const std::string& prefix,
                      double us);

/// RAII install/restore of the current thread's prof registry.
class ProfScope {
 public:
  explicit ProfScope(MetricsRegistry* registry);
  ~ProfScope();
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  MetricsRegistry* prev_;
};

class ProfTimer {
 public:
  explicit ProfTimer(const char* label) : registry_(profRegistry()) {
    if (registry_ != nullptr) {
      label_ = label;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfTimer();
  ProfTimer(const ProfTimer&) = delete;
  ProfTimer& operator=(const ProfTimer&) = delete;

 private:
  MetricsRegistry* registry_;
  const char* label_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dynet::obs

#define DYNET_PROF_CAT2(a, b) a##b
#define DYNET_PROF_CAT(a, b) DYNET_PROF_CAT2(a, b)
/// Times the enclosing scope under `label` (see file comment).
#define DYNET_PROF(label) \
  ::dynet::obs::ProfTimer DYNET_PROF_CAT(dynet_prof_timer_, __LINE__)(label)
