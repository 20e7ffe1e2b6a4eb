// Deterministic sim-time SLO monitoring (DESIGN.md §13).
//
// A deadline target (from the scenario's [slo] INI block) is checked against
// every counted task completion. Per device class the monitor keeps a
// sliding sim-time window of completions, derives the window miss rate and
// the burn rate (miss rate / target miss rate — burn 1.0 means the error
// budget is being consumed exactly as provisioned, >1 means faster), and
// records fire/clear alert transitions when the burn crosses the threshold.
//
// Everything is driven by simulated time and the completion order of the
// DES, which is deterministic for a fixed seed — so the alert stream (and
// its JSONL rendering) is bit-identical across runtime thread counts. No
// wall clock, no RNG.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

namespace leime::obs {

/// The [slo] INI block. Disabled unless a positive deadline is set.
struct SloConfig {
  double deadline = 0.0;           ///< seconds; <= 0 disables the monitor
  double window = 30.0;            ///< sliding window length (sim seconds)
  double target_miss_rate = 0.01;  ///< provisioned error budget
  double burn_threshold = 1.0;     ///< alert when burn >= threshold
  std::uint64_t min_window_tasks = 20;  ///< evidence floor before firing
  std::string alerts_out;          ///< alerts JSONL path ("" = memory only)

  bool enabled() const { return deadline > 0.0; }

  /// Throws std::invalid_argument on non-positive window/target/threshold
  /// (when enabled).
  void validate() const;
};

/// One alert transition, recorded at the completion that caused it.
struct SloAlert {
  double t = 0.0;
  std::size_t cls = 0;  ///< device-class index
  bool fire = true;     ///< false = clear
  double miss_rate = 0.0;
  double burn = 0.0;
  std::uint64_t window_tasks = 0;
};

/// One run's SLO summary for SimResult / RunRecord.
struct SloSummary {
  bool active = false;
  double deadline = 0.0;

  struct ClassStats {
    std::string name;
    std::uint64_t completions = 0;  ///< counted completions observed
    std::uint64_t misses = 0;
    std::uint64_t alerts_fired = 0;
    std::uint64_t alerts_cleared = 0;
    double max_burn = 0.0;
  };
  std::vector<ClassStats> classes;  ///< sorted by class name

  /// The alert stream, in completion order.
  struct Alert {
    double t = 0.0;
    std::string cls;
    bool fire = true;
    double miss_rate = 0.0;
    double burn = 0.0;
    std::uint64_t window_tasks = 0;
  };
  std::vector<Alert> alerts;

  /// One JSON object (single line, no trailing newline) for runtime sinks.
  void to_json(std::ostream& out) const;
};

/// The live monitor: one sliding window per device class.
class SloMonitor {
 public:
  /// Throws via SloConfig::validate.
  SloMonitor(SloConfig config, std::size_t num_classes);

  /// Records a completion with task completion time `tct` at sim time `t`.
  /// Returns the alert transition this completion caused, or nullptr.
  /// The returned pointer stays valid until the next call.
  const SloAlert* on_completion(std::size_t cls, double t, double tct);

  const SloConfig& config() const { return cfg_; }
  const std::vector<SloAlert>& alerts() const { return alerts_; }

  double miss_rate(std::size_t cls) const;
  double burn_rate(std::size_t cls) const;
  std::uint64_t completions(std::size_t cls) const;
  std::uint64_t misses(std::size_t cls) const;
  bool alerting(std::size_t cls) const;

  /// Freezes per-class stats + the alert stream into a summary.
  SloSummary summary(const std::vector<std::string>& class_names) const;

  /// One JSON object per alert, one per line; bit-identical for identical
  /// completion streams.
  void write_alerts_jsonl(std::ostream& out,
                          const std::vector<std::string>& class_names) const;

 private:
  struct ClassWindow {
    std::deque<std::pair<double, bool>> events;  ///< (t, missed)
    std::uint64_t window_misses = 0;
    std::uint64_t completions = 0;
    std::uint64_t misses = 0;
    double max_burn = 0.0;
    bool alerting = false;
    std::uint64_t fired = 0;
    std::uint64_t cleared = 0;
  };

  void evict(ClassWindow& w, double t);

  SloConfig cfg_;
  std::vector<ClassWindow> windows_;
  std::vector<SloAlert> alerts_;
};

}  // namespace leime::obs
