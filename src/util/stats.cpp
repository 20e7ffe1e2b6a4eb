#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace leime::util {

namespace {

/// One Welford step: the arithmetic of RunningStats::add and add_moment.
void welford_add(std::size_t& n, double& mean, double& m2, double& min,
                 double& max, double x) {
  if (n == 0) {
    min = max = x;
  } else {
    min = std::min(min, x);
    max = std::max(max, x);
  }
  ++n;
  const double delta = x - mean;
  mean += delta / static_cast<double>(n);
  m2 += delta * (x - mean);
}

}  // namespace

void RunningStats::add(double x) {
  welford_add(n_, mean_, m2_, min_, max_, x);
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
  return sorted_percentile(values.size(), q,
                           [&](std::size_t k) { return values[k]; });
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
  for (double v : values) add_moment(out, v);
  end_moments(out);
  std::vector<double> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  set_percentiles(out, sorted.size(),
                  [&](std::size_t k) { return sorted[k]; });
  return out;
}

void add_moment(Summary& s, double x) {
  welford_add(s.count, s.mean, s.stddev, s.min, s.max, x);
}

void end_moments(Summary& s) {
  s.stddev = s.count < 2 ? 0.0
                         : std::sqrt(s.stddev /
                                     static_cast<double>(s.count - 1));
}

}  // namespace leime::util
