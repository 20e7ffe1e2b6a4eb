// Task-lifecycle tracing: sim-time spans collected per resource track and
// exported in the Chrome trace-event format (load the file at
// chrome://tracing or https://ui.perfetto.dev).
//
// Second pillar of the observability layer (DESIGN.md §8). The simulator
// opens a span when a task enters a phase (local compute, uplink, edge
// block, cloud, return link, ...) and closes it when the phase's completion
// event fires; abandoned phases (retry, failover) are closed with an
// explicit outcome so the viewer shows where the time went. Timestamps are
// *simulated* seconds, rendered as microseconds in the trace file; wall
// clock never appears, so traces are bit-reproducible across hosts.
//
// Sampling is deterministic: TaskSampler keeps task `id` iff id % n == 0,
// so two runs of the same scenario trace exactly the same tasks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace leime::obs {

/// Deterministic 1-in-n task sampler. n == 1 keeps everything; n == 0
/// keeps nothing (tracing disabled).
class TaskSampler {
 public:
  explicit TaskSampler(std::uint64_t n = 1) : n_(n) {}

  bool sampled(std::uint64_t task_id) const {
    return n_ > 0 && task_id % n_ == 0;
  }
  std::uint64_t every() const { return n_; }

 private:
  std::uint64_t n_;
};

/// One closed span: a task occupied `track` from t_begin to t_end.
struct SpanEvent {
  std::uint64_t task_id = 0;
  int device = -1;        ///< originating device, -1 if not device-bound
  std::string phase;      ///< e.g. "uplink", "edge_block1"
  std::string track;      ///< resource lane, e.g. "device0/cpu", "edge/gpu"
  std::string outcome;    ///< "ok", "retry", "failover", "timeout", ...
  double t_begin = 0.0;   ///< sim seconds
  double t_end = 0.0;     ///< sim seconds, >= t_begin
  int attempt = 0;        ///< task attempt number the span belongs to
};

/// Instant (zero-duration) marker, e.g. "edge_crash", "task_timeout".
struct MarkEvent {
  /// Sentinel for marks that are not task-related. A literal 0 would
  /// collide with the legitimate first task id, so "no task" is explicit.
  static constexpr std::uint64_t kNoTask = ~std::uint64_t{0};

  std::string name;
  std::string track;
  double t = 0.0;
  std::uint64_t task_id = kNoTask;

  bool has_task() const { return task_id != kNoTask; }
};

/// Collects spans/marks in memory and exports them once at the end of a
/// run. Not thread-safe (the DES is single-threaded per run).
class TraceBuffer {
 public:
  void add_span(SpanEvent span);
  void add_mark(MarkEvent mark);

  const std::vector<SpanEvent>& spans() const { return spans_; }
  const std::vector<MarkEvent>& marks() const { return marks_; }
  bool empty() const { return spans_.empty() && marks_.empty(); }

  /// Chrome trace-event JSON: one "X" (complete) event per span, one "i"
  /// (instant) event per mark, plus thread_name metadata so each resource
  /// track gets a named lane. Tracks are assigned tids by sorted track
  /// name, so the file is deterministic regardless of emission order.
  void write_chrome_trace(std::ostream& out) const;

 private:
  std::vector<SpanEvent> spans_;
  std::vector<MarkEvent> marks_;
};

}  // namespace leime::obs
