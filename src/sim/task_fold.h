// The run summary, folded task by task (DESIGN.md §16).
//
// The simulator keeps a task's record only while the task is in flight. A
// task that completes or parks retires into a TaskFold in task-id order,
// and the fold keeps only what the summary needs: counters, window sums
// and, per counted completion, its TCT and device. At the end of the run
// TaskFold::summarize turns the fold and the run's Aggregates into the
// SimResult. A sharded run's coordinator merges the shards' retired tasks
// into one fold in the single queue's id order.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/scenario.h"
#include "util/csv.h"

namespace leime::sim {

/// What the summary and the task trace read of one task, plus the key a
/// sharded run merges its shards' tasks by.
struct TaskOutcome {
  double t_arrive = 0.0;
  double t_complete = -1.0;  ///< < 0: still in flight when the run ended
  /// When the task's arrival event was scheduled: same-instant arrivals
  /// run in this order in the event queue (the sharded merge key).
  double t_sched = 0.0;
  std::size_t device = 0;
  int block = 0;  ///< exit block: 1, 2 or 3
  bool offloaded = false;
  bool counted = false;  ///< arrived at or after the warmup
  bool parked = false;   ///< given up for good; never completes
};

struct FaultCounters {
  std::size_t failed_over = 0;
  std::size_t retries = 0;
  std::size_t fallback_slots = 0;
};

/// Every accumulator the summary needs beside the tasks. A single run
/// keeps one; a sharded run reassembles one across shards (exact integer
/// sums plus the replayed x stream, so the merged values are bit-identical
/// to a single run's).
struct Aggregates {
  double x_sum = 0.0;
  std::size_t x_count = 0;
  double q_sum = 0.0;
  double h_sum = 0.0;
  std::size_t queue_samples = 0;
  std::size_t link_outages = 0;
  std::size_t edge_crashes = 0;
  std::size_t churn_events = 0;
  std::size_t local_fallbacks = 0;
  FaultCounters fleet;
  std::vector<double> x_sum_dev;
  std::vector<std::size_t> x_count_dev;
  std::vector<FaultCounters> dev_faults;

  void resize(std::size_t n) {
    x_sum_dev.assign(n, 0.0);
    x_count_dev.assign(n, 0);
    dev_faults.assign(n, {});
  }
};

/// Accumulates tasks in id order. The TCT moments and the timeline's
/// window sums depend on that order, so a task may only be added once
/// every lower id has been.
class TaskFold {
 public:
  /// Opens cfg.task_trace_path, when set, and writes its header.
  explicit TaskFold(const ScenarioConfig& cfg);

  /// Folds task `id`, which must be the number of tasks added so far, and
  /// writes its task-trace row.
  void add(std::size_t id, const TaskOutcome& task);

  /// The run's result from the fold and `agg`. Closes the task trace, so
  /// a failed last write throws naming the path. Call once, last.
  SimResult summarize(const Aggregates& agg);

 private:
  /// One counted completion.
  struct Sample {
    double tct;
    std::size_t device;
  };

  void write_trace_row(std::size_t id, const TaskOutcome& task);
  /// Fills tct and per_device's summaries and counts from samples_.
  void summarize_tcts(SimResult& out, std::size_t num_devices);

  double timeline_window_;
  std::unique_ptr<util::CsvWriter> trace_;
  std::size_t generated_ = 0;
  std::size_t total_completed_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t parked_ = 0;
  std::size_t exits_[3] = {0, 0, 0};
  /// Timeline window index -> (TCT sum, completions).
  std::map<long long, std::pair<double, std::size_t>> windows_;
  std::vector<Sample> samples_;  ///< in id order until summarize sorts it
};

}  // namespace leime::sim
