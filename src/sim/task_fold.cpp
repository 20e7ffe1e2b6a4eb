#include "sim/task_fold.h"

#include <algorithm>
#include <string>

#include "util/check.h"
#include "util/stats.h"

namespace leime::sim {

TaskFold::TaskFold(const ScenarioConfig& cfg)
    : timeline_window_(cfg.timeline_window) {
  if (!cfg.task_trace_path.empty())
    trace_ = std::make_unique<util::CsvWriter>(
        cfg.task_trace_path,
        std::vector<std::string>{"task", "device", "t_arrive", "t_complete",
                                 "tct", "exit_block", "offloaded",
                                 "counted"});
}

void TaskFold::add(std::size_t id, const TaskOutcome& task) {
  LEIME_CHECK(id == generated_);
  ++generated_;
  const bool done = task.t_complete >= 0.0;
  if (done)
    ++total_completed_;
  else
    ++in_flight_;
  if (task.parked) ++parked_;
  if (trace_) write_trace_row(id, task);
  if (!task.counted || !done) return;
  const double tct = task.t_complete - task.t_arrive;
  ++exits_[task.block - 1];
  auto& slot =
      windows_[static_cast<long long>(task.t_complete / timeline_window_)];
  slot.first += tct;
  ++slot.second;
  samples_.push_back({tct, task.device});
}

void TaskFold::write_trace_row(std::size_t id, const TaskOutcome& task) {
  const bool done = task.t_complete >= 0.0;
  trace_->add_row({std::to_string(id), std::to_string(task.device),
                   std::to_string(task.t_arrive),
                   done ? std::to_string(task.t_complete) : "-",
                   done ? std::to_string(task.t_complete - task.t_arrive)
                        : "-",
                   std::to_string(task.block), task.offloaded ? "1" : "0",
                   task.counted ? "1" : "0"});
}

void TaskFold::summarize_tcts(SimResult& out, std::size_t num_devices) {
  // Moments in id order, each device's straight into its result.
  out.per_device.resize(num_devices);
  for (const Sample& s : samples_) {
    util::add_moment(out.tct, s.tct);
    util::add_moment(out.per_device[s.device].tct, s.tct);
  }
  util::end_moments(out.tct);
  for (auto& dev : out.per_device) {
    util::end_moments(dev.tct);
    dev.completed = dev.tct.count;
  }
  // Percentiles from the one array sorted in place: by device then TCT for
  // each device's, then by TCT for the fleet's.
  std::sort(samples_.begin(), samples_.end(),
            [](const Sample& a, const Sample& b) {
              if (a.device != b.device) return a.device < b.device;
              return a.tct < b.tct;
            });
  for (std::size_t begin = 0; begin < samples_.size();) {
    auto& dev = out.per_device[samples_[begin].device];
    util::set_percentiles(dev.tct, dev.completed, [&](std::size_t k) {
      return samples_[begin + k].tct;
    });
    begin += dev.completed;
  }
  if (samples_.empty()) return;
  std::sort(samples_.begin(), samples_.end(),
            [](const Sample& a, const Sample& b) { return a.tct < b.tct; });
  util::set_percentiles(out.tct, samples_.size(),
                        [&](std::size_t k) { return samples_[k].tct; });
  samples_ = std::vector<Sample>();
}

SimResult TaskFold::summarize(const Aggregates& agg) {
  if (trace_) trace_->close();
  SimResult out;
  out.generated = generated_;
  out.total_completed = total_completed_;
  out.in_flight = in_flight_;
  out.faults.parked = parked_;
  out.completed = samples_.size();
  summarize_tcts(out, agg.x_sum_dev.size());
  const double total = std::max<std::size_t>(1, out.completed);
  out.exit1_fraction = exits_[0] / total;
  out.exit2_fraction = exits_[1] / total;
  out.exit3_fraction = exits_[2] / total;
  out.mean_offload_ratio = agg.x_count ? agg.x_sum / agg.x_count : 0.0;
  out.mean_device_queue =
      agg.queue_samples ? agg.q_sum / agg.queue_samples : 0.0;
  out.mean_edge_queue =
      agg.queue_samples ? agg.h_sum / agg.queue_samples : 0.0;
  out.faults.link_outages = agg.link_outages;
  out.faults.edge_crashes = agg.edge_crashes;
  out.faults.churn_events = agg.churn_events;
  out.faults.failed_over = agg.fleet.failed_over;
  out.faults.retries = agg.fleet.retries;
  out.faults.local_fallbacks = agg.local_fallbacks;
  out.faults.fallback_slots = agg.fleet.fallback_slots;
  out.timeline.reserve(windows_.size());
  for (const auto& [w, slot] : windows_)
    out.timeline.push_back({(w + 0.5) * timeline_window_,
                            slot.first / slot.second, slot.second});
  for (std::size_t i = 0; i < out.per_device.size(); ++i) {
    auto& dr = out.per_device[i];
    dr.mean_offload_ratio =
        agg.x_count_dev[i]
            ? agg.x_sum_dev[i] / static_cast<double>(agg.x_count_dev[i])
            : 0.0;
    dr.failed_over = agg.dev_faults[i].failed_over;
    dr.retries = agg.dev_faults[i].retries;
    dr.fallback_slots = agg.dev_faults[i].fallback_slots;
  }
  return out;
}

}  // namespace leime::sim
