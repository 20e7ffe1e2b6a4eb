// The simulator's run summary as it was computed before tasks were folded
// as they retire: every task's full record is kept until the run ends and
// then walked in id order. TaskFold.MatchesAFullRecordReference checks
// sim::TaskFold against it.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/scenario.h"

namespace leime::fold_reference {

/// One task's full record.
struct Record {
  double t_arrive = 0.0;
  double t_complete = -1.0;  ///< < 0: still in flight when the run ended
  std::size_t device = 0;
  int block = 0;
  bool offloaded = false;
  bool counted = false;
  bool parked = false;
};

/// The task-derived fields of a SimResult from every task's record, in id
/// order: generated, completed, total_completed, in_flight, faults.parked,
/// tct, the exit fractions, timeline, and per_device's tct and completed.
/// Every other field keeps its default.
sim::SimResult summarize(const std::vector<Record>& tasks,
                         std::size_t num_devices, double timeline_window);

}  // namespace leime::fold_reference
