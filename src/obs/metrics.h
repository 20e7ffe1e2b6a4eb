// Metrics registry: counters, gauges and fixed-bucket log-scale histograms
// with deterministic snapshot/merge semantics.
//
// The registry is the first pillar of the observability layer (DESIGN.md
// §8): simulator and runtime code register named instruments once and bump
// them on the hot path; a Snapshot freezes the registry into plain data
// that can ride inside a SimResult/RunRecord, merge with other shards, and
// export as Prometheus text or JSONL.
//
// Determinism contract: a Snapshot is a pure function of the sequence of
// instrument updates, and Snapshot::merge is associative over shards as
// long as they are merged in a fixed order (the runtime merges per-cell
// snapshots in plan order, so 1 and 4 executor threads export identical
// text). Histograms use exact integer bucket counts plus a
// util::RunningStats moment accumulator whose parallel-merge is the same
// bit pattern for a fixed merge order.
//
// Metric names must match ^leime_[a-z0-9_]+$ (enforced at registration,
// linted in CI by scripts/lint_metric_names.sh).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.h"

namespace leime::obs {

/// True iff `name` matches ^leime_[a-z0-9_]+$.
bool valid_metric_name(const std::string& name);

/// Monotone event counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value instrument (e.g. "is the edge up right now").
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-scale histogram geometry: `buckets` geometric buckets spanning
/// [min_bound, max_bound), plus an underflow bucket (everything below
/// min_bound, including negatives) and an overflow bucket.
struct HistogramOptions {
  double min_bound = 1e-6;
  double max_bound = 1e3;
  int buckets = 54;  ///< ~2.6 buckets per decade over 9 decades

  friend bool operator==(const HistogramOptions&,
                         const HistogramOptions&) = default;
};

/// Fixed-bucket log-scale histogram. Exact count/mean/min/max/sum via the
/// embedded RunningStats; p50/p95/p99 estimated from the bucket counts
/// (geometric interpolation inside the containing bucket, so the estimate
/// is within one bucket width of the true quantile).
class Histogram {
 public:
  explicit Histogram(HistogramOptions opts = {});

  void observe(double v);

  const util::RunningStats& stats() const { return stats_; }
  const HistogramOptions& options() const { return opts_; }

  /// Bucket counts: [0] = underflow, [1..buckets] = geometric buckets,
  /// [buckets+1] = overflow.
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Upper bound of geometric bucket i (0-based); min_bound * growth^(i+1).
  double upper_bound(int bucket) const;

  /// Quantile estimate for q in [0,1]; 0 when empty. Exact at the extremes
  /// (min/max come from RunningStats); interpolated inside buckets
  /// otherwise.
  double quantile(double q) const;

  /// Merges a shard with identical options (throws otherwise).
  void merge(const Histogram& other);

  /// Folds frozen sample data back in (counts must match the geometry).
  void absorb(const std::vector<std::uint64_t>& counts,
              const util::RunningStats& stats);

 private:
  HistogramOptions opts_;
  double log_min_;
  double log_growth_;
  std::vector<std::uint64_t> counts_;
  util::RunningStats stats_;
};

/// A registry frozen into plain data, ordered by metric name. Safe to copy
/// across threads and into results.
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::string help;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::string help;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::string help;
    HistogramOptions options;
    std::vector<std::uint64_t> counts;  ///< underflow + buckets + overflow
    /// Full moment accumulator (not just derived values) so merging
    /// snapshots reproduces the exact bit pattern of merging live shards.
    util::RunningStats stats;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  std::vector<CounterSample> counters;  ///< sorted by name
  std::vector<GaugeSample> gauges;      ///< sorted by name
  std::vector<HistogramSample> histograms;  ///< sorted by name

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Merges `other` into this snapshot: counters add, histogram buckets and
  /// moments combine, gauges take `other`'s value (last-merged wins, which
  /// is deterministic for a fixed merge order). Metrics present in only one
  /// side are kept. Throws on histogram geometry mismatch.
  void merge(const Snapshot& other);

  /// Prometheus text exposition (HELP/TYPE lines, cumulative `le` buckets,
  /// _sum/_count). Deterministic: util::num doubles, name order.
  void to_prometheus(std::ostream& out) const;

  /// One self-describing JSON object per metric, one per line.
  void to_jsonl(std::ostream& out) const;
};

/// Name -> instrument registry. Registration returns a stable reference;
/// re-registering the same name returns the existing instrument (kind and,
/// for histograms, geometry must match — std::invalid_argument otherwise).
/// Not thread-safe: shard one registry per thread and merge snapshots.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       HistogramOptions opts = {});

  Snapshot snapshot() const;
  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Folds a snapshot's values back into this registry's instruments
  /// (creating them as needed) — how the executor's per-thread shards and
  /// per-cell results accumulate into one caller-owned registry.
  void absorb(const Snapshot& snap);

 private:
  struct Named {
    std::string help;
  };
  std::map<std::string, std::pair<Named, Counter>> counters_;
  std::map<std::string, std::pair<Named, Gauge>> gauges_;
  std::map<std::string, std::pair<Named, std::unique_ptr<Histogram>>>
      histograms_;
};

/// Quantile estimate from frozen histogram data (the same algorithm
/// Histogram::quantile uses on live buckets).
double histogram_quantile(const HistogramOptions& opts,
                          const std::vector<std::uint64_t>& counts,
                          const util::RunningStats& stats, double q);

}  // namespace leime::obs
