#include "obs/slo.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "util/output.h"

namespace leime::obs {

using util::json_escape;
using util::num;

namespace {

std::string cls_name(const std::vector<std::string>& names, std::size_t cls) {
  if (cls < names.size()) return names[cls];
  return "class" + std::to_string(cls);
}

void alert_to_json(std::ostream& out, double t, const std::string& cls,
                   bool fire, double miss_rate, double burn,
                   std::uint64_t window_tasks) {
  out << "{\"t\":" << num(t) << ",\"class\":\"" << json_escape(cls)
      << "\",\"event\":\"" << (fire ? "fire" : "clear")
      << "\",\"miss_rate\":" << num(miss_rate) << ",\"burn\":" << num(burn)
      << ",\"window_tasks\":" << window_tasks << '}';
}

}  // namespace

void SloConfig::validate() const {
  if (!enabled()) return;
  if (window <= 0.0)
    throw std::invalid_argument("slo: window must be positive");
  if (target_miss_rate <= 0.0 || target_miss_rate > 1.0)
    throw std::invalid_argument("slo: target_miss_rate must be in (0, 1]");
  if (burn_threshold <= 0.0)
    throw std::invalid_argument("slo: burn_threshold must be positive");
}

void SloSummary::to_json(std::ostream& out) const {
  out << "{\"deadline\":" << num(deadline) << ",\"classes\":[";
  bool first = true;
  for (const auto& c : classes) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(c.name)
        << "\",\"completions\":" << c.completions << ",\"misses\":" << c.misses
        << ",\"fired\":" << c.alerts_fired << ",\"cleared\":" << c.alerts_cleared
        << ",\"max_burn\":" << num(c.max_burn) << '}';
  }
  out << "],\"alerts\":[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    if (i) out << ',';
    const auto& a = alerts[i];
    alert_to_json(out, a.t, a.cls, a.fire, a.miss_rate, a.burn,
                  a.window_tasks);
  }
  out << "]}";
}

SloMonitor::SloMonitor(SloConfig config, std::size_t num_classes)
    : cfg_(std::move(config)), windows_(std::max<std::size_t>(1, num_classes)) {
  cfg_.validate();
}

void SloMonitor::evict(ClassWindow& w, double t) {
  const double horizon = t - cfg_.window;
  while (!w.events.empty() && w.events.front().first < horizon) {
    if (w.events.front().second) --w.window_misses;
    w.events.pop_front();
  }
}

const SloAlert* SloMonitor::on_completion(std::size_t cls, double t,
                                          double tct) {
  if (!cfg_.enabled() || cls >= windows_.size()) return nullptr;
  ClassWindow& w = windows_[cls];
  const bool missed = tct > cfg_.deadline;
  ++w.completions;
  if (missed) ++w.misses;
  evict(w, t);
  w.events.emplace_back(t, missed);
  if (missed) ++w.window_misses;
  const auto n = static_cast<std::uint64_t>(w.events.size());
  const double rate =
      n == 0 ? 0.0 : static_cast<double>(w.window_misses) / static_cast<double>(n);
  const double burn = rate / cfg_.target_miss_rate;
  w.max_burn = std::max(w.max_burn, burn);
  if (!w.alerting && burn >= cfg_.burn_threshold && n >= cfg_.min_window_tasks) {
    w.alerting = true;
    ++w.fired;
    alerts_.push_back({t, cls, true, rate, burn, n});
    return &alerts_.back();
  }
  if (w.alerting && burn < cfg_.burn_threshold) {
    w.alerting = false;
    ++w.cleared;
    alerts_.push_back({t, cls, false, rate, burn, n});
    return &alerts_.back();
  }
  return nullptr;
}

double SloMonitor::miss_rate(std::size_t cls) const {
  if (cls >= windows_.size()) return 0.0;
  const auto& w = windows_[cls];
  if (w.events.empty()) return 0.0;
  return static_cast<double>(w.window_misses) /
         static_cast<double>(w.events.size());
}

double SloMonitor::burn_rate(std::size_t cls) const {
  return cfg_.target_miss_rate > 0.0 ? miss_rate(cls) / cfg_.target_miss_rate
                                     : 0.0;
}

std::uint64_t SloMonitor::completions(std::size_t cls) const {
  return cls < windows_.size() ? windows_[cls].completions : 0;
}

std::uint64_t SloMonitor::misses(std::size_t cls) const {
  return cls < windows_.size() ? windows_[cls].misses : 0;
}

bool SloMonitor::alerting(std::size_t cls) const {
  return cls < windows_.size() && windows_[cls].alerting;
}

SloSummary SloMonitor::summary(
    const std::vector<std::string>& class_names) const {
  SloSummary s;
  s.active = cfg_.enabled();
  s.deadline = cfg_.deadline;
  if (!s.active) return s;
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const auto& w = windows_[i];
    if (w.completions == 0 && w.fired == 0) continue;
    SloSummary::ClassStats c;
    c.name = cls_name(class_names, i);
    c.completions = w.completions;
    c.misses = w.misses;
    c.alerts_fired = w.fired;
    c.alerts_cleared = w.cleared;
    c.max_burn = w.max_burn;
    s.classes.push_back(std::move(c));
  }
  std::sort(s.classes.begin(), s.classes.end(),
            [](const SloSummary::ClassStats& a, const SloSummary::ClassStats& b) {
              return a.name < b.name;
            });
  s.alerts.reserve(alerts_.size());
  for (const auto& a : alerts_) {
    SloSummary::Alert out;
    out.t = a.t;
    out.cls = cls_name(class_names, a.cls);
    out.fire = a.fire;
    out.miss_rate = a.miss_rate;
    out.burn = a.burn;
    out.window_tasks = a.window_tasks;
    s.alerts.push_back(std::move(out));
  }
  return s;
}

void SloMonitor::write_alerts_jsonl(
    std::ostream& out, const std::vector<std::string>& class_names) const {
  for (const auto& a : alerts_) {
    alert_to_json(out, a.t, cls_name(class_names, a.cls), a.fire, a.miss_rate,
                  a.burn, a.window_tasks);
    out << '\n';
  }
}

}  // namespace leime::obs
