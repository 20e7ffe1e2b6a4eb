#include "task_fold_reference.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/stats.h"

namespace leime::fold_reference {
namespace {

double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

util::Summary summarize_sample(const std::vector<double>& values) {
  util::Summary out;
  if (values.empty()) return out;
  util::RunningStats s;
  for (double v : values) s.add(v);
  out.count = s.count();
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.min = s.min();
  out.max = s.max();
  out.p50 = percentile(values, 0.50);
  out.p95 = percentile(values, 0.95);
  out.p99 = percentile(values, 0.99);
  return out;
}

}  // namespace

sim::SimResult summarize(const std::vector<Record>& tasks,
                         std::size_t num_devices, double timeline_window) {
  sim::SimResult out;
  std::vector<double> tcts;
  std::map<long long, std::pair<double, std::size_t>> windows;
  std::size_t exits[3] = {0, 0, 0};
  std::vector<std::vector<double>> device_tcts(num_devices);
  for (const auto& rec : tasks) {
    ++out.generated;
    if (rec.t_complete >= 0.0)
      ++out.total_completed;
    else
      ++out.in_flight;
    if (rec.parked) ++out.faults.parked;
    if (!rec.counted) continue;
    if (rec.t_complete < 0.0) continue;  // still in flight at drain end
    ++out.completed;
    const double tct = rec.t_complete - rec.t_arrive;
    tcts.push_back(tct);
    device_tcts[rec.device].push_back(tct);
    ++exits[rec.block - 1];
    const auto w = static_cast<long long>(rec.t_complete / timeline_window);
    auto& slot = windows[w];
    slot.first += tct;
    ++slot.second;
  }
  out.tct = summarize_sample(tcts);
  const double total = std::max<std::size_t>(1, out.completed);
  out.exit1_fraction = exits[0] / total;
  out.exit2_fraction = exits[1] / total;
  out.exit3_fraction = exits[2] / total;
  for (const auto& [w, slot] : windows)
    out.timeline.push_back({(w + 0.5) * timeline_window,
                            slot.first / slot.second, slot.second});
  for (std::size_t i = 0; i < num_devices; ++i) {
    sim::SimResult::DeviceResult dr;
    dr.tct = summarize_sample(device_tcts[i]);
    dr.completed = device_tcts[i].size();
    out.per_device.push_back(dr);
  }
  return out;
}

}  // namespace leime::fold_reference
