#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "util/output.h"

namespace leime::obs {

using util::json_escape;
using util::num;

namespace {

// Prometheus text-exposition escaping. HELP lines escape backslash and
// newline; label values additionally escape double quotes (the `le` bounds
// we emit are numeric, but the writer stays correct for any value).
std::string prom_escape_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_escape_label(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void require_valid_name(const std::string& name) {
  if (!valid_metric_name(name))
    throw std::invalid_argument(
        "metrics: name '" + name +
        "' does not match ^leime_[a-z0-9_]+$ (see DESIGN.md §8)");
}

template <typename Map>
bool name_taken_elsewhere(const Map& map, const std::string& name) {
  return map.count(name) > 0;
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  constexpr const char* prefix = "leime_";
  if (name.rfind(prefix, 0) != 0) return false;
  if (name.size() == 6) return false;  // bare prefix
  for (std::size_t i = 6; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

// ------------------------------------------------------------- Histogram

/// The bit pattern of a positive double grows with its value, so its top
/// bits (exponent plus a few mantissa bits) cut [min_bound, max_bound)
/// into cells no wider than a bucket; each cell names the first bucket it
/// overlaps and one compare against the bucket's upper edge finishes the
/// lookup. The edges are computed, so a value within a relative 1e-9 of an
/// interior edge takes the log formula instead: far more than the few ULPs
/// by which the formula's own rounding can move an edge, so both paths
/// agree on every input.
struct Histogram::Geometry {
  static constexpr double kGuard = 1e-9;
  static constexpr std::size_t kMaxCells = 4096;

  HistogramOptions opts;
  double log_min = 0.0;
  double log_growth = 0.0;
  int shift = 52;                 ///< bits(v) >> shift = cell number
  std::uint64_t first_cell = 0;   ///< cell number of min_bound
  std::vector<std::uint16_t> cell_bucket;  ///< empty: always use the log
  std::vector<double> upper;    ///< upper edge of each geometric bucket
  std::vector<double> safe_lo;  ///< per bucket: where the lookup is exact
  std::vector<double> safe_hi;
};

const Histogram::Geometry* Histogram::geometry_for(
    const HistogramOptions& opts) {
  if (!(opts.min_bound > 0.0) || !(opts.max_bound > opts.min_bound))
    throw std::invalid_argument(
        "Histogram: bounds must satisfy 0 < min_bound < max_bound");
  if (opts.buckets < 1)
    throw std::invalid_argument("Histogram: need at least one bucket");
  // A handful of geometries per process; built once, never freed.
  static std::mutex mu;
  static std::vector<std::unique_ptr<const Geometry>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  for (const auto& geo : cache)
    if (geo->opts == opts) return geo.get();

  auto geo = std::make_unique<Geometry>();
  geo->opts = opts;
  geo->log_min = std::log(opts.min_bound);
  geo->log_growth = (std::log(opts.max_bound) - geo->log_min) / opts.buckets;
  const auto n = static_cast<std::size_t>(opts.buckets);
  geo->upper.resize(n);
  for (std::size_t b = 0; b + 1 < n; ++b)
    geo->upper[b] = std::exp(geo->log_min +
                             geo->log_growth * static_cast<double>(b + 1));
  geo->upper[n - 1] = opts.max_bound;
  geo->safe_lo.resize(n);
  geo->safe_hi.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    // The outer edges are exact comparisons in bucket(), and the formula
    // clamps into [0, n - 1], so only interior edges need a guard band.
    geo->safe_lo[b] =
        b == 0 ? opts.min_bound : geo->upper[b - 1] * (1.0 + Geometry::kGuard);
    geo->safe_hi[b] = b + 1 == n ? std::numeric_limits<double>::infinity()
                                 : geo->upper[b] * (1.0 - Geometry::kGuard);
  }
  // Cells of relative width 2^-m <= growth - 1 overlap at most two buckets.
  const double growth = std::exp(geo->log_growth);
  int m = 0;
  while (m < 12 && std::ldexp(1.0, -m) > growth - 1.0) ++m;
  geo->shift = 52 - m;
  geo->first_cell = std::bit_cast<std::uint64_t>(opts.min_bound) >> geo->shift;
  const std::uint64_t cells =
      (std::bit_cast<std::uint64_t>(opts.max_bound) >> geo->shift) -
      geo->first_cell + 1;
  if (std::ldexp(1.0, -m) <= growth - 1.0 && cells <= Geometry::kMaxCells &&
      n <= 0xffff) {
    geo->cell_bucket.resize(static_cast<std::size_t>(cells));
    std::size_t b = 0;
    for (std::uint64_t c = 0; c < cells; ++c) {
      const double low =
          std::bit_cast<double>((geo->first_cell + c) << geo->shift);
      while (b + 1 < n && low >= geo->upper[b]) ++b;
      geo->cell_bucket[static_cast<std::size_t>(c)] =
          static_cast<std::uint16_t>(b);
    }
  }
  cache.push_back(std::move(geo));
  return cache.back().get();
}

Histogram::Histogram(HistogramOptions opts)
    : geo_(geometry_for(opts)),
      counts_(static_cast<std::size_t>(opts.buckets) + 2, 0) {}

const HistogramOptions& Histogram::options() const { return geo_->opts; }

std::size_t Histogram::bucket(double v) const {
  const Geometry& g = *geo_;
  if (v < g.opts.min_bound) return 0;
  if (v >= g.opts.max_bound) return counts_.size() - 1;
  // NaN lands past the table and takes the formula, as it always did.
  const std::uint64_t cell =
      (std::bit_cast<std::uint64_t>(v) >> g.shift) - g.first_cell;
  if (cell < g.cell_bucket.size()) {
    std::size_t b = g.cell_bucket[static_cast<std::size_t>(cell)];
    if (v >= g.upper[b]) ++b;
    if (v >= g.safe_lo[b] && v < g.safe_hi[b]) return b + 1;
  }
  return bucket_by_log(v);
}

std::size_t Histogram::bucket_by_log(double v) const {
  const int b =
      static_cast<int>((std::log(v) - geo_->log_min) / geo_->log_growth);
  return static_cast<std::size_t>(std::clamp(b, 0, geo_->opts.buckets - 1)) +
         1;
}

double Histogram::upper_bound(int bucket) const {
  return std::exp(geo_->log_min + geo_->log_growth * (bucket + 1));
}

double histogram_quantile(const HistogramOptions& opts,
                          const std::vector<std::uint64_t>& counts,
                          const util::RunningStats& stats, double q) {
  if (q < 0.0 || q > 1.0)
    throw std::invalid_argument("histogram_quantile: q outside [0,1]");
  const std::uint64_t n = stats.count();
  if (n == 0) return 0.0;
  if (q <= 0.0) return stats.min();
  if (q >= 1.0) return stats.max();
  const double log_min = std::log(opts.min_bound);
  const double log_growth =
      (std::log(opts.max_bound) - log_min) / opts.buckets;
  const double target = q * static_cast<double>(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target) {
      // Geometric interpolation inside the bucket; the open-ended under-
      // and overflow buckets fall back to the exact sample extremes.
      const double frac = (target - cum) / static_cast<double>(counts[i]);
      if (i == 0) return std::min(stats.max(), opts.min_bound);
      if (i == counts.size() - 1) return stats.max();
      const double lo = log_min + log_growth * static_cast<double>(i - 1);
      return std::exp(lo + log_growth * frac);
    }
    cum = next;
  }
  return stats.max();
}

double Histogram::quantile(double q) const {
  return histogram_quantile(geo_->opts, counts_, stats_, q);
}

void Histogram::merge(const Histogram& other) {
  if (geo_ != other.geo_)
    throw std::invalid_argument(
        "Histogram::merge: shards have different bucket geometry");
  absorb(other.counts_, other.stats_);
}

void Histogram::absorb(const std::vector<std::uint64_t>& counts,
                       const util::RunningStats& stats) {
  if (counts.size() != counts_.size())
    throw std::invalid_argument(
        "Histogram::absorb: bucket count mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += counts[i];
  stats_.merge(stats);
}

// -------------------------------------------------------------- Snapshot

void Snapshot::to_prometheus(std::ostream& out) const {
  for (const auto& c : counters) {
    if (!c.help.empty())
      out << "# HELP " << c.name << " " << prom_escape_help(c.help) << "\n";
    out << "# TYPE " << c.name << " counter\n";
    out << c.name << " " << c.value << "\n";
  }
  for (const auto& g : gauges) {
    if (!g.help.empty())
      out << "# HELP " << g.name << " " << prom_escape_help(g.help) << "\n";
    out << "# TYPE " << g.name << " gauge\n";
    out << g.name << " " << num(g.value) << "\n";
  }
  for (const auto& h : histograms) {
    if (!h.help.empty())
      out << "# HELP " << h.name << " " << prom_escape_help(h.help) << "\n";
    out << "# TYPE " << h.name << " histogram\n";
    // Cumulative buckets: underflow folds into the first bound.
    std::uint64_t cum = 0;
    Histogram geometry(h.options);
    for (int b = -1; b < h.options.buckets; ++b) {
      cum += h.counts[static_cast<std::size_t>(b + 1)];
      const double le =
          b < 0 ? h.options.min_bound : geometry.upper_bound(b);
      out << h.name << "_bucket{le=\"" << prom_escape_label(num(le))
          << "\"} " << cum << "\n";
    }
    cum += h.counts.back();
    out << h.name << "_bucket{le=\"+Inf\"} " << cum << "\n";
    out << h.name << "_sum " << num(h.stats.sum()) << "\n";
    out << h.name << "_count " << h.stats.count() << "\n";
  }
}

void Snapshot::to_jsonl(std::ostream& out) const {
  for (const auto& c : counters)
    out << "{\"metric\":\"" << json_escape(c.name)
        << "\",\"type\":\"counter\",\"value\":" << c.value << "}\n";
  for (const auto& g : gauges)
    out << "{\"metric\":\"" << json_escape(g.name)
        << "\",\"type\":\"gauge\",\"value\":" << num(g.value) << "}\n";
  for (const auto& h : histograms) {
    out << "{\"metric\":\"" << json_escape(h.name)
        << "\",\"type\":\"histogram\",\"count\":" << h.stats.count()
        << ",\"sum\":" << num(h.stats.sum())
        << ",\"min\":" << num(h.stats.min())
        << ",\"max\":" << num(h.stats.max()) << ",\"p50\":" << num(h.p50)
        << ",\"p95\":" << num(h.p95) << ",\"p99\":" << num(h.p99) << "}\n";
  }
}

// -------------------------------------------------------- MetricsRegistry

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  require_valid_name(name);
  if (name_taken_elsewhere(gauges_, name) ||
      name_taken_elsewhere(histograms_, name))
    throw std::invalid_argument("metrics: '" + name +
                                "' already registered with another kind");
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second.first.help = help;
  return it->second.second;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  require_valid_name(name);
  if (name_taken_elsewhere(counters_, name) ||
      name_taken_elsewhere(histograms_, name))
    throw std::invalid_argument("metrics: '" + name +
                                "' already registered with another kind");
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) it->second.first.help = help;
  return it->second.second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      HistogramOptions opts) {
  require_valid_name(name);
  if (name_taken_elsewhere(counters_, name) ||
      name_taken_elsewhere(gauges_, name))
    throw std::invalid_argument("metrics: '" + name +
                                "' already registered with another kind");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_pair(Named{help},
                                           std::make_unique<Histogram>(opts)))
             .first;
  } else if (!(it->second.second->options() == opts)) {
    throw std::invalid_argument(
        "metrics: histogram '" + name +
        "' re-registered with different bucket geometry");
  }
  return *it->second.second;
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  for (const auto& [name, entry] : counters_)
    snap.counters.push_back({name, entry.first.help, entry.second.value()});
  for (const auto& [name, entry] : gauges_)
    snap.gauges.push_back({name, entry.first.help, entry.second.value()});
  for (const auto& [name, entry] : histograms_) {
    const Histogram& h = *entry.second;
    Snapshot::HistogramSample s;
    s.name = name;
    s.help = entry.first.help;
    s.options = h.options();
    s.counts = h.counts();
    s.stats = h.stats();
    s.p50 = h.quantile(0.50);
    s.p95 = h.quantile(0.95);
    s.p99 = h.quantile(0.99);
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void MetricsRegistry::absorb(const Snapshot& snap) {
  for (const auto& c : snap.counters) counter(c.name, c.help).inc(c.value);
  for (const auto& g : snap.gauges) gauge(g.name, g.help).set(g.value);
  for (const auto& h : snap.histograms) {
    Histogram& mine = histogram(h.name, h.help, h.options);
    mine.absorb(h.counts, h.stats);
  }
}

}  // namespace leime::obs
