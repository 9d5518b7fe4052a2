// Low-overhead metrics registry: counters, gauges, fixed-bucket histograms,
// and append-only series carrying the per-round / per-node dimensions.
//
// Design goals (docs/OBSERVABILITY.md has the metric-name catalog):
//   * The disabled path costs one branch on a null pointer.  Hot code
//     resolves handles (Counter*, Series*, ...) once, outside the loop, and
//     never does a string lookup per round; with no sink attached nothing
//     is touched at all (tests pin that a null-sink run is byte-identical
//     to a run without the observability layer).
//   * Handle stability: the registry hands out pointers into node-based
//     maps, so handles stay valid for the registry's lifetime no matter how
//     many metrics are registered afterwards.
//   * Deterministic export: names are ordered and numbers are written with
//     round-trippable formatting, so two runs with the same seed produce
//     byte-identical metrics.json (modulo wall-clock prof/ timers, which
//     are only present when a DYNET_PROF registry is installed).
//
// The registry is NOT thread-safe.  Attach it to one engine at a time; in
// particular, never share one across sim::BatchRunner worker threads —
// instrument a single representative run, or run the batch with
// BatchOptions{.threads = 1} (docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace dynet::obs {

/// Monotone event count (messages sent, deliveries dropped, ...).
struct Counter {
  std::uint64_t value = 0;

  void inc(std::uint64_t delta = 1) { value += delta; }
};

/// Last-write-wins scalar (rounds executed, budget bits, ...).
struct Gauge {
  double value = 0;

  void set(double v) { value = v; }
};

/// Fixed-bucket histogram: counts per (upper-bound) bucket plus an overflow
/// bucket, with exact count/sum/min/max on the side.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing; a sample x
  /// lands in the first bucket with x <= bound, or in the overflow bucket.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records `times` samples of value x (one sample by default).
  void observe(double x, std::uint64_t times = 1);

  /// Adds `other`'s samples to this histogram.  Both must have identical
  /// bucket bounds (merging across threads that used the same bucket
  /// ladder, e.g. profBucketsUs); mismatched bounds throw.
  void merge(const Histogram& other);

  /// Drops every sample; the bucket bounds stay.
  void clear();

  const std::vector<double>& upperBounds() const { return upper_bounds_; }
  /// Size upperBounds().size() + 1; the last entry is the overflow bucket.
  const std::vector<std::uint64_t>& bucketCounts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const;
  double max() const;

  /// Percentile estimate (p in [0, 1]) by linear interpolation inside the
  /// bucket containing the target rank; clamped to [min, max].
  double percentileEstimate(double p) const;

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Append-only sample vector.  The observability layer uses the name prefix
/// to carry the dimension: `round/...` series hold one sample per executed
/// round (index = round - 1), `node/...` series one sample per node
/// (index = node id, written via setAt).
class Series {
 public:
  void append(double v) { values_.push_back(v); }
  /// Sets index i, zero-filling any gap (used for the per-node dimension).
  void setAt(std::size_t i, double v);

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

class MetricsRegistry {
 public:
  /// Registers on first use, then returns the same handle; handles stay
  /// valid for the registry's lifetime.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// `upper_bounds` is consulted only on first registration.
  Histogram* histogram(const std::string& name,
                       std::vector<double> upper_bounds);
  Series* series(const std::string& name);

  /// Folds `other` into this registry: counters add, gauges take `other`'s
  /// value, histograms merge (identical bounds required), series append.
  /// Used to combine per-thread registries (e.g. the campaign scheduler's
  /// supervisor threads) into one exportable profile.
  void mergeFrom(const MetricsRegistry& other);

  bool empty() const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, Series>& allSeries() const { return series_; }

  /// Writes the metrics.json schema (docs/OBSERVABILITY.md); deterministic
  /// for deterministic metric values.
  void writeJson(std::ostream& out) const;
  std::string toJson() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Series> series_;
};

/// Standard duration buckets for DYNET_PROF timers: a power-of-4 ladder
/// from 1us to ~4.3s plus overflow.
std::vector<double> profBucketsUs();

/// Writes a double so that parsing it back yields the same value, as an
/// integer literal when exact (shared by metrics and trace emitters).
void writeJsonNumber(std::ostream& out, double v);

/// Writes `s` as a quoted, escaped JSON string literal (shared by the
/// metrics, trace, and event emitters).
void writeJsonString(std::ostream& out, const std::string& s);

}  // namespace dynet::obs
