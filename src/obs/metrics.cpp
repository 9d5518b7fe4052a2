#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace dynet::obs {

void writeJsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

namespace {

void writeNumberArray(std::ostream& out, const std::vector<double>& values) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out << ',';
    }
    writeJsonNumber(out, values[i]);
  }
  out << ']';
}

}  // namespace

void writeJsonNumber(std::ostream& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    out << static_cast<std::int64_t>(v);
    return;
  }
  DYNET_CHECK(std::isfinite(v)) << "non-finite metric value";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  DYNET_CHECK(!upper_bounds_.empty()) << "histogram needs at least one bucket";
  DYNET_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end(),
                             [](double a, double b) { return a <= b; }))
      << "histogram bounds must be strictly increasing";
  counts_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::observe(double x, std::uint64_t times) {
  if (times == 0) {
    return;
  }
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - upper_bounds_.begin())] += times;
  if (count_ == 0 || x < min_) {
    min_ = x;
  }
  if (count_ == 0 || x > max_) {
    max_ = x;
  }
  count_ += times;
  sum_ += x * static_cast<double>(times);
}

void Histogram::merge(const Histogram& other) {
  DYNET_CHECK(upper_bounds_ == other.upper_bounds_)
      << "cannot merge histograms with different bucket bounds";
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) {
      min_ = other.min_;
    }
    if (count_ == 0 || other.max_ > max_) {
      max_ = other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

double Histogram::min() const {
  DYNET_CHECK(count_ > 0) << "min of empty histogram";
  return min_;
}

double Histogram::max() const {
  DYNET_CHECK(count_ > 0) << "max of empty histogram";
  return max_;
}

double Histogram::percentileEstimate(double p) const {
  DYNET_CHECK(count_ > 0) << "percentile of empty histogram";
  DYNET_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
  const double rank = p * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) {
      continue;
    }
    const double before = static_cast<double>(seen);
    seen += counts_[b];
    if (static_cast<double>(seen) < rank) {
      continue;
    }
    // Interpolate inside bucket b between its lower and upper edges.
    const double lo = b == 0 ? min_ : upper_bounds_[b - 1];
    const double hi = b < upper_bounds_.size() ? upper_bounds_[b] : max_;
    const double frac = counts_[b] == 0
                            ? 0.0
                            : (rank - before) / static_cast<double>(counts_[b]);
    const double est = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    return std::clamp(est, min_, max_);
  }
  return max_;
}

void Series::setAt(std::size_t i, double v) {
  if (i >= values_.size()) {
    values_.resize(i + 1, 0.0);
  }
  values_[i] = v;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  return &counters_[name];
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  return &gauges_[name];
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return &it->second;
  }
  return &histograms_.emplace(name, Histogram(std::move(upper_bounds)))
              .first->second;
}

Series* MetricsRegistry::series(const std::string& name) {
  return &series_[name];
}

void MetricsRegistry::mergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].value += c.value;
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_[name].value = g.value;
  }
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
  for (const auto& [name, s] : other.series_) {
    Series& mine = series_[name];
    for (const double v : s.values()) {
      mine.append(v);
    }
  }
}

bool MetricsRegistry::empty() const {
  return counters_.empty() && gauges_.empty() && histograms_.empty() &&
         series_.empty();
}

void MetricsRegistry::writeJson(std::ostream& out) const {
  out << "{\n  \"dynet_metrics\": 1,\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    writeJsonString(out, name);
    out << ": " << c.value;
  }
  out << (counters_.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    writeJsonString(out, name);
    out << ": ";
    writeJsonNumber(out, g.value);
  }
  out << (gauges_.empty() ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    writeJsonString(out, name);
    out << ": {\"bounds\": ";
    writeNumberArray(out, h.upperBounds());
    out << ", \"counts\": [";
    for (std::size_t i = 0; i < h.bucketCounts().size(); ++i) {
      out << (i > 0 ? "," : "") << h.bucketCounts()[i];
    }
    out << "], \"count\": " << h.count() << ", \"sum\": ";
    writeJsonNumber(out, h.sum());
    if (h.count() > 0) {
      out << ", \"min\": ";
      writeJsonNumber(out, h.min());
      out << ", \"max\": ";
      writeJsonNumber(out, h.max());
    }
    out << '}';
  }
  out << (histograms_.empty() ? "}" : "\n  }") << ",\n  \"series\": {";
  first = true;
  for (const auto& [name, s] : series_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    writeJsonString(out, name);
    out << ": ";
    writeNumberArray(out, s.values());
  }
  out << (series_.empty() ? "}" : "\n  }") << "\n}\n";
}

std::string MetricsRegistry::toJson() const {
  std::ostringstream out;
  writeJson(out);
  return out.str();
}

std::vector<double> profBucketsUs() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 4.5e6; b *= 4.0) {
    bounds.push_back(b);  // 1us, 4us, ..., ~4.3s
  }
  return bounds;
}

}  // namespace dynet::obs
