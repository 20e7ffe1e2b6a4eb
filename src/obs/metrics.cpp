#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
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

Histogram::Histogram(HistogramOptions opts) : opts_(opts) {
  if (!(opts_.min_bound > 0.0) || !(opts_.max_bound > opts_.min_bound))
    throw std::invalid_argument(
        "Histogram: bounds must satisfy 0 < min_bound < max_bound");
  if (opts_.buckets < 1)
    throw std::invalid_argument("Histogram: need at least one bucket");
  log_min_ = std::log(opts_.min_bound);
  log_growth_ =
      (std::log(opts_.max_bound) - log_min_) / opts_.buckets;
  counts_.assign(static_cast<std::size_t>(opts_.buckets) + 2, 0);
}

void Histogram::observe(double v) {
  stats_.add(v);
  std::size_t idx;
  if (v < opts_.min_bound) {
    idx = 0;
  } else if (v >= opts_.max_bound) {
    idx = counts_.size() - 1;
  } else {
    const int b = static_cast<int>((std::log(v) - log_min_) / log_growth_);
    idx = static_cast<std::size_t>(std::clamp(b, 0, opts_.buckets - 1)) + 1;
  }
  ++counts_[idx];
}

double Histogram::upper_bound(int bucket) const {
  return std::exp(log_min_ + log_growth_ * (bucket + 1));
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
  return histogram_quantile(opts_, counts_, stats_, q);
}

void Histogram::merge(const Histogram& other) {
  if (!(opts_ == other.opts_))
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

namespace {

template <typename Sample, typename Fold>
void merge_sorted(std::vector<Sample>& into, const std::vector<Sample>& from,
                  const Fold& fold) {
  for (const auto& sample : from) {
    auto it = std::lower_bound(
        into.begin(), into.end(), sample,
        [](const Sample& a, const Sample& b) { return a.name < b.name; });
    if (it != into.end() && it->name == sample.name)
      fold(*it, sample);
    else
      into.insert(it, sample);
  }
}

}  // namespace

void Snapshot::merge(const Snapshot& other) {
  merge_sorted(counters, other.counters,
               [](CounterSample& a, const CounterSample& b) {
                 a.value += b.value;
               });
  merge_sorted(gauges, other.gauges, [](GaugeSample& a, const GaugeSample& b) {
    a.value = b.value;  // last-merged wins (deterministic in merge order)
  });
  merge_sorted(histograms, other.histograms,
               [](HistogramSample& a, const HistogramSample& b) {
                 if (!(a.options == b.options) ||
                     a.counts.size() != b.counts.size())
                   throw std::invalid_argument(
                       "Snapshot::merge: histogram geometry mismatch for " +
                       a.name);
                 for (std::size_t i = 0; i < a.counts.size(); ++i)
                   a.counts[i] += b.counts[i];
                 a.stats.merge(b.stats);
                 a.p50 = histogram_quantile(a.options, a.counts, a.stats, 0.50);
                 a.p95 = histogram_quantile(a.options, a.counts, a.stats, 0.95);
                 a.p99 = histogram_quantile(a.options, a.counts, a.stats, 0.99);
               });
}

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
