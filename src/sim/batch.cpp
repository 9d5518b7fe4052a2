#include "sim/batch.h"

#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dynet::sim {

TrialSummary BatchRunner::run(int trials, std::uint64_t base_seed,
                              const BatchTrialFn& body,
                              TrialSamples* samples) {
  DYNET_CHECK(trials >= 1) << "trials=" << trials;
  DYNET_CHECK(options_.threads <= 1)
      << "BatchOptions::threads = " << options_.threads
      << ": use 0 (the shared pool) or 1 (inline)";
  const auto n = static_cast<std::size_t>(trials);
  // Trial i writes records[i] alone, so no slot is shared between threads.
  std::vector<std::map<std::string, double>> records(n);
  const auto run_trial = [&](std::size_t i) {
    TrialRecorder rec(records[i]);
    body(util::hashCombine(base_seed, i), rec);
  };

  if (options_.threads == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      run_trial(i);
    }
  } else {
    util::ThreadPool::shared().parallelFor(n, run_trial);
  }

  // Merge in trial order: per metric, samples land in the Summary in the
  // same sequence a sequential per-trial loop produces, so summaries are
  // bit-for-bit identical across thread counts.
  TrialSummary summary;
  if (samples != nullptr) {
    samples->metrics.clear();
  }
  for (const auto& record : records) {
    for (const auto& [name, value] : record) {
      summary.metrics[name].add(value);
      if (samples != nullptr) {
        samples->metrics[name].push_back(value);
      }
    }
  }
  return summary;
}

}  // namespace dynet::sim
