#include "sim/batch.h"

#include <mutex>
#include <utility>

#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dynet::sim {

MetricId TrialRecorder::metric(const std::string& name) {
  return runner_->metricId(name);
}

void TrialRecorder::set(MetricId id, double value) {
  runner_->record(trial_, id, value);
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}
BatchRunner::~BatchRunner() = default;

MetricId BatchRunner::metricId(const std::string& name) {
  {
    std::shared_lock lock(mu_);
    auto it = schema_.find(name);
    if (it != schema_.end()) {
      return it->second;
    }
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = schema_.try_emplace(name, columns_.size());
  if (inserted) {
    auto column = std::make_unique<Column>();
    column->name = name;
    // A metric can be first recorded mid-run (e.g. a fault counter that is
    // only nonzero in some trials): size its slots for the current run.
    column->values.assign(trials_, 0.0);
    column->present.assign(trials_, 0);
    columns_.push_back(std::move(column));
  }
  return it->second;
}

void BatchRunner::record(std::size_t trial, MetricId id, double value) {
  std::shared_lock lock(mu_);
  DYNET_CHECK(id < columns_.size()) << "unknown metric id " << id;
  Column& column = *columns_[id];
  DYNET_CHECK(trial < column.values.size())
      << "trial " << trial << " out of range";
  column.values[trial] = value;
  column.present[trial] = 1;
}

EngineWorkspace* BatchRunner::acquireWorkspace() {
  std::lock_guard<std::mutex> lock(ws_mu_);
  if (!free_workspaces_.empty()) {
    EngineWorkspace* ws = free_workspaces_.back();
    free_workspaces_.pop_back();
    return ws;
  }
  workspaces_.push_back(std::make_unique<EngineWorkspace>());
  return workspaces_.back().get();
}

void BatchRunner::releaseWorkspace(EngineWorkspace* ws) {
  std::lock_guard<std::mutex> lock(ws_mu_);
  free_workspaces_.push_back(ws);
}

void BatchRunner::beginRun(std::size_t trials) {
  std::unique_lock lock(mu_);
  trials_ = trials;
  for (auto& column : columns_) {
    column->values.assign(trials, 0.0);
    column->present.assign(trials, 0);
  }
}

TrialSummary BatchRunner::mergeSummary(TrialSamples* samples) {
  // Merge in trial order: per metric, samples land in the Summary in the
  // same sequence a sequential per-trial loop produces, so summaries are
  // bit-for-bit identical across thread counts.
  TrialSummary summary;
  if (samples != nullptr) {
    samples->metrics.clear();
  }
  for (std::size_t t = 0; t < trials_; ++t) {
    for (const auto& column : columns_) {
      if (column->present[t] != 0) {
        summary.metrics[column->name].add(column->values[t]);
        if (samples != nullptr) {
          samples->metrics[column->name].push_back(column->values[t]);
        }
      }
    }
  }
  return summary;
}

TrialSummary BatchRunner::run(int trials, std::uint64_t base_seed,
                              const BatchTrialFn& body,
                              TrialSamples* samples) {
  DYNET_CHECK(trials >= 1) << "trials=" << trials;
  const auto n = static_cast<std::size_t>(trials);
  beginRun(n);

  const auto run_trial = [&](std::size_t i) {
    EngineWorkspace* ws = acquireWorkspace();
    TrialRecorder rec(this, i);
    try {
      body(util::hashCombine(base_seed, i), *ws, rec);
    } catch (...) {
      releaseWorkspace(ws);
      throw;
    }
    releaseWorkspace(ws);
  };

  if (options_.threads == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      run_trial(i);
    }
  } else if (options_.threads == 0) {
    util::ThreadPool::shared().parallelFor(n, run_trial);
  } else {
    util::ThreadPool pool(options_.threads);
    pool.parallelFor(n, run_trial);
  }

  return mergeSummary(samples);
}

}  // namespace dynet::sim
