// Compute and network resources of the discrete-event simulator.
//
// FifoProcessor models a compute resource serving jobs first-in-first-out at
// a fixed FLOPS rate (a device CPU or one docker share p_i·F^e on the edge).
// Link models a point-to-point connection with FIFO serialization at the
// current bandwidth plus a propagation delay; bandwidth and latency can
// follow traces (COMCAST-style shaping).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/inline_fn.h"
#include "util/trace.h"

namespace leime::sim {

/// Job classes tracked separately so the controller can observe the paper's
/// per-type backlogs (Q_i / H_i count first-block tasks only).
enum class JobClass : std::uint8_t { kBlock1 = 0, kBlock2 = 1, kBlock3 = 2 };

/// Completion callbacks ride inside EventQueue handlers, so they use the
/// same never-allocating inline storage. 48 bytes fits the largest
/// completion capture in simulation.cpp ([this, i, id, att, step] plus
/// padding) with headroom; the InlineFn bind static-asserts any overflow.
inline constexpr std::size_t kCompletionCapacity = 48;
using Completion = util::InlineFn<void(double), kCompletionCapacity>;

class FifoProcessor {
 public:
  using Completion = sim::Completion;  ///< fires with the finish time

  /// `flops` must be > 0. The queue+EventQueue must outlive the processor.
  FifoProcessor(EventQueue& queue, std::string name, double flops);

  /// Enqueues a job of `work` FLOPs (>= 0); `done` fires at its completion
  /// time. FIFO: starts when all previously enqueued jobs finish.
  void submit(double work, JobClass cls, Completion done);

  /// Jobs enqueued but not yet completed, by class.
  int pending(JobClass cls) const { return pending_[static_cast<int>(cls)]; }
  int pending_total() const;

  double flops() const { return flops_; }

  /// Changes the service rate for jobs submitted from now on (in-flight
  /// jobs keep the rate they were admitted with). Used by dynamic edge
  /// reallocation. Must be > 0.
  void set_flops(double flops);

  /// Crash-recovery reset: the server comes back empty at time `now` —
  /// queued work evaporates, the per-class pending counters drop to zero
  /// and busy_until resets (the fault layer reschedules the lost work
  /// elsewhere). Completions of pre-crash jobs still fire (their callers'
  /// staleness guards ignore them) but no longer touch the counters, so a
  /// post-crash backlog observation can never go negative.
  void restart(double now);

  /// Total FLOPs ever submitted (for utilisation accounting).
  double total_work() const { return total_work_; }

  /// Time the processor will next be idle (>= now).
  double busy_until() const { return busy_until_; }

  const std::string& name() const { return name_; }

 private:
  EventQueue* queue_;
  std::string name_;
  double flops_;
  double busy_until_ = 0.0;
  double total_work_ = 0.0;
  int pending_[3] = {0, 0, 0};
  /// Bumped by restart(); completions from an earlier epoch skip the
  /// pending_ bookkeeping (the counters were already zeroed).
  std::uint32_t epoch_ = 0;
};

class Link {
 public:
  using Completion = sim::Completion;  ///< fires with the delivery time

  /// Fixed-parameter link. Bandwidth in bytes/s (> 0), latency in s (>= 0).
  Link(EventQueue& queue, std::string name, double bandwidth_bytes_per_s,
       double latency_s);

  /// Attaches traces overriding bandwidth and/or latency over time. The
  /// value in effect when a transfer starts applies to that whole transfer.
  void set_bandwidth_trace(util::PiecewiseConstant trace);
  void set_latency_trace(util::PiecewiseConstant trace);

  /// Outage windows [start, end) during which the link stops serializing:
  /// queued bytes are held, not lost, and transfers resume at each window's
  /// end (fault injection; see sim/faults.h). Windows must be sorted,
  /// disjoint and finite. Call before any transfer.
  void set_outage_windows(std::vector<std::pair<double, double>> windows);

  /// False while inside an outage window.
  bool up_at(double t) const;

  /// Enqueues a transfer of `bytes` (>= 0); `done` fires when the last bit
  /// arrives (serialization + propagation). The link serializes transfers
  /// FIFO; propagation is pipelined (does not occupy the link).
  /// `extra_latency` adds per-transfer propagation on top of the link's own
  /// (used by the shared-medium mode, where the AP link carries per-device
  /// latencies).
  void transfer(double bytes, Completion done) { transfer(bytes, 0.0, std::move(done)); }
  void transfer(double bytes, double extra_latency, Completion done);

  int pending() const { return pending_; }

  /// Bytes still to be serialized at time `now` (busy time remaining times
  /// the current bandwidth); the controller's uplink-backlog observation.
  /// During an outage this deliberately overstates the queued bytes (the
  /// held time counts as backlog), which steers the controller away from a
  /// down link.
  double backlog_bytes(double now) const;

  double bandwidth_at(double t) const;
  double latency_at(double t) const;
  double total_bytes() const { return total_bytes_; }
  const std::string& name() const { return name_; }

  /// When the serializer frees up for a transfer enqueued now (== the
  /// exec_start of such a transfer, outage holds aside). Feeds the
  /// wait-vs-service split of observer phase spans and fabric hop spans.
  double busy_until() const { return busy_until_; }

 private:
  EventQueue* queue_;
  std::string name_;
  double bandwidth_;
  double latency_;
  std::optional<util::PiecewiseConstant> bw_trace_;
  std::optional<util::PiecewiseConstant> lat_trace_;
  std::vector<std::pair<double, double>> outages_;
  double busy_until_ = 0.0;
  double total_bytes_ = 0.0;
  int pending_ = 0;
};

}  // namespace leime::sim
