#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace leime::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: q outside [0,1]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return percentile(values, 0.5);
}

RobustSummary robust_summarize(const std::vector<double>& values) {
  RobustSummary out;
  if (values.empty()) return out;
  out.count = values.size();
  out.median = median_of(values);
  std::vector<double> dev;
  dev.reserve(values.size());
  for (double v : values) dev.push_back(std::abs(v - out.median));
  out.mad = median_of(dev);
  out.cv = out.median != 0.0 ? 1.4826 * out.mad / std::abs(out.median) : 0.0;
  RunningStats s;
  for (double v : values) s.add(v);
  out.min = s.min();
  out.max = s.max();
  out.mean = s.mean();
  return out;
}

Summary summarize(const std::vector<double>& values) {
  Summary out;
  if (values.empty()) return out;
  RunningStats s;
  for (double v : values) s.add(v);
  out.count = s.count();
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.min = s.min();
  out.max = s.max();
  out.p50 = percentile(values, 0.50);
  out.p95 = percentile(values, 0.95);
  out.p99 = percentile(values, 0.99);
  return out;
}

}  // namespace leime::util
