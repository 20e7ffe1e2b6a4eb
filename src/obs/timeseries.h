// Time-series probes: per-slot samples of the Lyapunov control state
// (Q_i, H_i, offload ratio x_i, drift and penalty terms) plus fault-state
// flags, kept in memory and written to CSV at the end of a run.
//
// Third pillar of the observability layer (DESIGN.md §8). The simulator
// emits one SlotSample per device per control slot — exactly the
// granularity of the queue recursions in eqs. 10–11 of the paper, so a
// plotted series shows the backlogs evolving slot by slot through fault
// windows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/csv.h"

namespace leime::obs {

/// One device-slot observation, taken when the controller decides x_i(t).
struct SlotSample {
  double t = 0.0;          ///< slot start, sim seconds
  int device = -1;
  double q = 0.0;          ///< Q_i(t): device queue backlog (tasks), eq. 10
  double h = 0.0;          ///< H_i(t): edge virtual queue (tasks), eq. 11
  double x = 0.0;          ///< chosen offload ratio x_i(t) in [0, 1]
  double drift = 0.0;      ///< Lyapunov drift term of eq. 20 at chosen x
  double penalty = 0.0;    ///< V * y_i(t): penalty term of eq. 20 at chosen x
  std::uint64_t kept_arrivals = 0;      ///< arrivals kept local this slot
  std::uint64_t offloaded_arrivals = 0; ///< arrivals offloaded this slot
  bool edge_up = true;     ///< edge server reachable & alive this slot
  bool link_up = true;     ///< device uplink outside an outage window
  double edge_share_flops = 0.0;  ///< f_i^e: edge FLOPS share (eq. 27)
};

/// Keeps every sample in memory — the observer's store and the analysis
/// sink.
class MemoryTimeseriesSink {
 public:
  void append(const SlotSample& sample) { samples_.push_back(sample); }
  const std::vector<SlotSample>& samples() const { return samples_; }

 private:
  std::vector<SlotSample> samples_;
};

/// Streams samples as CSV rows (header written on construction).
class CsvTimeseriesSink {
 public:
  explicit CsvTimeseriesSink(const std::string& path);
  void append(const SlotSample& sample);
  /// Ends the file durably; throws std::runtime_error on write failure.
  void close() { writer_.close(); }

 private:
  util::CsvWriter writer_;
};

}  // namespace leime::obs
