#include "obs/attribution.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/output.h"

namespace leime::obs {

using util::json_escape;
using util::num;

namespace {

const char* kStageNames[kAttrStageCount] = {
    "local_compute", "uplink",        "edge_compute", "cloud_link",
    "cloud_compute", "result_return", "other",
};

const char* kCalibNames[kCalibComponentCount] = {
    "local_wait", "local_service", "uplink", "edge_wait", "edge_service",
};

}  // namespace

const char* attr_stage_name(AttrStage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

AttrStage attr_stage_for_phase(std::string_view phase) {
  if (phase == "local_block1") return AttrStage::kLocalCompute;
  if (phase == "uplink") return AttrStage::kUplink;
  if (phase == "edge_block1" || phase == "edge_block2")
    return AttrStage::kEdgeCompute;
  if (phase == "edge_cloud_link") return AttrStage::kCloudLink;
  if (phase == "cloud_block3") return AttrStage::kCloudCompute;
  if (phase == "return_link" || phase == "cloud_return_link")
    return AttrStage::kResultReturn;
  return AttrStage::kOther;
}

bool attr_stage_is_link(AttrStage stage) {
  return stage == AttrStage::kUplink || stage == AttrStage::kCloudLink ||
         stage == AttrStage::kResultReturn;
}

HistogramOptions attr_latency_buckets() {
  return HistogramOptions{1e-6, 1e3, 54};
}

const char* calib_component_name(CalibComponent comp) {
  return kCalibNames[static_cast<std::size_t>(comp)];
}

bool TaskWaterfall::calibration_error(CalibComponent comp, double* err) const {
  // The eq. 4-9 model predicts the first, clean service attempt: tasks that
  // timed out and retried, or exited deeper than block 1, spent time the
  // model never claimed to predict.
  if (!pred.valid || retries != 0 || block != 1) return false;
  const auto& local = stages[static_cast<std::size_t>(AttrStage::kLocalCompute)];
  const auto& up = stages[static_cast<std::size_t>(AttrStage::kUplink)];
  const auto& edge = stages[static_cast<std::size_t>(AttrStage::kEdgeCompute)];
  switch (comp) {
    case CalibComponent::kLocalWait:
      if (offloaded) return false;
      *err = local.wait - pred.local_wait;
      return true;
    case CalibComponent::kLocalService:
      if (offloaded) return false;
      *err = local.service - pred.local_service;
      return true;
    case CalibComponent::kUplink:
      if (!offloaded) return false;
      *err = (up.wait + up.service) - pred.uplink;
      return true;
    case CalibComponent::kEdgeWait:
      if (!offloaded) return false;
      *err = edge.wait - pred.edge_wait;
      return true;
    case CalibComponent::kEdgeService:
      if (!offloaded) return false;
      *err = edge.service - pred.edge_service;
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// LatencyLedger

void LatencyLedger::on_generated(std::uint64_t task, int device,
                                 std::size_t cls, double t, int block,
                                 bool offloaded,
                                 const PredictedComponents& pred) {
  Entry& e = entries_[task];
  e.device = device;
  e.cls = cls;
  e.t_arrive = t;
  e.block = block;
  e.offloaded = offloaded;
  e.pred = pred;
}

void LatencyLedger::close_open(Entry& e, double t) {
  if (!e.open) return;
  e.open = false;
  const double dur = std::max(0.0, t - e.t_queued);
  auto& s = e.stages[static_cast<std::size_t>(e.stage)];
  double wait;
  if (e.saw_hops && attr_stage_is_link(e.stage)) {
    // Hops partition the span exactly; their waits are the fine-grained
    // truth for fabric legs (the span-level exec_start is the first hop's).
    wait = std::min(e.hop_wait, dur);
  } else {
    wait = std::min(std::max(0.0, e.exec_start - e.t_queued), dur);
  }
  s.wait += wait;
  s.service += dur - wait;
}

void LatencyLedger::on_phase_begin(std::uint64_t task, std::string_view phase,
                                   double t_queued, double exec_start) {
  auto it = entries_.find(task);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  close_open(e, t_queued);
  e.open = true;
  e.stage = attr_stage_for_phase(phase);
  e.t_queued = t_queued;
  e.exec_start = std::max(t_queued, exec_start);
  e.hop_wait = 0.0;
  e.saw_hops = false;
}

void LatencyLedger::on_phase_end(std::uint64_t task, double t) {
  auto it = entries_.find(task);
  if (it == entries_.end()) return;
  close_open(it->second, t);
}

void LatencyLedger::on_hop(std::uint64_t task, std::string_view port,
                           double t_queued, double exec_start, double t_end) {
  auto it = entries_.find(task);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (!e.open || !attr_stage_is_link(e.stage)) return;
  HopSpan hop;
  hop.port.assign(port.data(), port.size());
  hop.wait = std::max(0.0, exec_start - t_queued);
  hop.service = std::max(0.0, t_end - std::max(t_queued, exec_start));
  e.hop_wait += hop.wait;
  e.saw_hops = true;
  e.hops.push_back(std::move(hop));
}

bool LatencyLedger::on_parked(std::uint64_t task) {
  return entries_.erase(task) > 0;
}

bool LatencyLedger::on_complete(std::uint64_t task, double t_complete,
                                int retries, bool counted, TaskWaterfall* out) {
  auto it = entries_.find(task);
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  close_open(e, t_complete);
  out->task = task;
  out->device = e.device;
  out->cls = e.cls;
  out->t_arrive = e.t_arrive;
  out->t_complete = t_complete;
  out->block = e.block;
  out->retries = retries;
  out->offloaded = e.offloaded;
  out->counted = counted;
  out->stages = e.stages;
  out->hops = std::move(e.hops);
  out->pred = e.pred;
  out->e2e = t_complete - e.t_arrive;
  double spans = 0.0;
  for (const auto& s : out->stages) spans += s.wait + s.service;
  out->stall = out->e2e - spans;
  entries_.erase(it);
  return true;
}

// ---------------------------------------------------------------------------
// AttributionSummary

void StageAccum::add(const StageBreakdown& s) {
  ++count;
  wait += s.wait;
  service += s.service;
  wait_hist.observe(s.wait);
  service_hist.observe(s.service);
}

void StageAccum::merge(const StageAccum& other) {
  count += other.count;
  wait += other.wait;
  service += other.service;
  wait_hist.merge(other.wait_hist);
  service_hist.merge(other.service_hist);
}

void AttributionSummary::add(const TaskWaterfall& wf,
                             const std::string& cls_name) {
  active = true;
  ++tasks;
  auto cit = std::lower_bound(
      classes.begin(), classes.end(), cls_name,
      [](const ClassAccum& c, const std::string& n) { return c.name < n; });
  if (cit == classes.end() || cit->name != cls_name) {
    cit = classes.insert(cit, ClassAccum{});
    cit->name = cls_name;
  }
  ClassAccum& c = *cit;
  ++c.tasks;
  for (int i = 0; i < kAttrStageCount; ++i) {
    const auto& s = wf.stages[static_cast<std::size_t>(i)];
    if (s.wait == 0.0 && s.service == 0.0) continue;
    c.stages[static_cast<std::size_t>(i)].add(s);
  }
  c.e2e.observe(wf.e2e);
  c.stall.observe(wf.stall);
  for (const auto& hop : wf.hops) {
    auto pit = std::lower_bound(
        ports.begin(), ports.end(), hop.port,
        [](const std::pair<std::string, PortAccum>& p, const std::string& n) {
          return p.first < n;
        });
    if (pit == ports.end() || pit->first != hop.port)
      pit = ports.insert(pit, {hop.port, PortAccum{}});
    ++pit->second.spans;
    pit->second.wait += hop.wait;
    pit->second.service += hop.service;
  }
  bool any = false;
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    double err = 0.0;
    if (!wf.calibration_error(static_cast<CalibComponent>(ci), &err)) continue;
    any = true;
    auto& ca = calibration[static_cast<std::size_t>(ci)];
    ++ca.count;
    ca.err_sum += err;
    ca.abs_err_sum += std::abs(err);
    ca.max_abs_err = std::max(ca.max_abs_err, std::abs(err));
  }
  if (any) ++calibrated_tasks;
}

void AttributionSummary::merge(const AttributionSummary& other) {
  if (!other.active) return;
  active = true;
  tasks += other.tasks;
  incomplete += other.incomplete;
  calibrated_tasks += other.calibrated_tasks;
  for (const auto& oc : other.classes) {
    auto cit = std::lower_bound(
        classes.begin(), classes.end(), oc.name,
        [](const ClassAccum& c, const std::string& n) { return c.name < n; });
    if (cit == classes.end() || cit->name != oc.name) {
      cit = classes.insert(cit, ClassAccum{});
      cit->name = oc.name;
    }
    cit->tasks += oc.tasks;
    for (int i = 0; i < kAttrStageCount; ++i)
      cit->stages[static_cast<std::size_t>(i)].merge(
          oc.stages[static_cast<std::size_t>(i)]);
    cit->e2e.merge(oc.e2e);
    cit->stall.merge(oc.stall);
  }
  for (const auto& op : other.ports) {
    auto pit = std::lower_bound(
        ports.begin(), ports.end(), op.first,
        [](const std::pair<std::string, PortAccum>& p, const std::string& n) {
          return p.first < n;
        });
    if (pit == ports.end() || pit->first != op.first)
      pit = ports.insert(pit, {op.first, PortAccum{}});
    pit->second.spans += op.second.spans;
    pit->second.wait += op.second.wait;
    pit->second.service += op.second.service;
  }
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    auto& ca = calibration[static_cast<std::size_t>(ci)];
    const auto& co = other.calibration[static_cast<std::size_t>(ci)];
    ca.count += co.count;
    ca.err_sum += co.err_sum;
    ca.abs_err_sum += co.abs_err_sum;
    ca.max_abs_err = std::max(ca.max_abs_err, co.max_abs_err);
  }
}

void AttributionSummary::to_json(std::ostream& out) const {
  out << "{\"tasks\":" << tasks << ",\"incomplete\":" << incomplete
      << ",\"calibrated\":" << calibrated_tasks << ",\"classes\":[";
  bool first_c = true;
  for (const auto& c : classes) {
    if (!first_c) out << ',';
    first_c = false;
    out << "{\"name\":\"" << json_escape(c.name) << "\",\"tasks\":" << c.tasks
        << ",\"e2e_p50\":" << num(c.e2e.quantile(0.50))
        << ",\"e2e_p95\":" << num(c.e2e.quantile(0.95))
        << ",\"stall_mean\":" << num(c.stall.stats().mean()) << ",\"stages\":[";
    bool first_s = true;
    for (int i = 0; i < kAttrStageCount; ++i) {
      const auto& s = c.stages[static_cast<std::size_t>(i)];
      if (s.count == 0) continue;
      if (!first_s) out << ',';
      first_s = false;
      out << "{\"stage\":\"" << kStageNames[i] << "\",\"count\":" << s.count
          << ",\"wait\":" << num(s.wait) << ",\"service\":" << num(s.service)
          << ",\"wait_p95\":" << num(s.wait_hist.quantile(0.95))
          << ",\"service_p95\":" << num(s.service_hist.quantile(0.95)) << '}';
    }
    out << "]}";
  }
  out << "],\"ports\":[";
  bool first_p = true;
  for (const auto& [port, pa] : ports) {
    if (!first_p) out << ',';
    first_p = false;
    out << "{\"port\":\"" << json_escape(port) << "\",\"spans\":" << pa.spans
        << ",\"wait\":" << num(pa.wait) << ",\"service\":" << num(pa.service)
        << '}';
  }
  out << "],\"calibration\":[";
  bool first_k = true;
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    const auto& ca = calibration[static_cast<std::size_t>(ci)];
    if (ca.count == 0) continue;
    if (!first_k) out << ',';
    first_k = false;
    out << "{\"component\":\"" << kCalibNames[ci] << "\",\"count\":" << ca.count
        << ",\"err_sum\":" << num(ca.err_sum)
        << ",\"abs_err_sum\":" << num(ca.abs_err_sum)
        << ",\"max_abs_err\":" << num(ca.max_abs_err) << '}';
  }
  out << "]}";
}

// ---------------------------------------------------------------------------
// File formats

namespace {

const std::string& cls_name_of(const TaskWaterfall& wf,
                               const std::vector<std::string>& class_names) {
  static const std::string kDefault = "default";
  if (wf.cls < class_names.size()) return class_names[wf.cls];
  return kDefault;
}

}  // namespace

void write_waterfalls_jsonl(std::ostream& out,
                            const std::vector<TaskWaterfall>& rows,
                            const std::vector<std::string>& class_names) {
  for (const auto& wf : rows) {
    out << "{\"task\":" << wf.task << ",\"class\":\""
        << json_escape(cls_name_of(wf, class_names))
        << "\",\"device\":" << wf.device << ",\"t_arrive\":"
        << num(wf.t_arrive) << ",\"t_complete\":" << num(wf.t_complete)
        << ",\"e2e\":" << num(wf.e2e) << ",\"block\":" << wf.block
        << ",\"retries\":" << wf.retries
        << ",\"offloaded\":" << (wf.offloaded ? "true" : "false")
        << ",\"counted\":" << (wf.counted ? "true" : "false")
        << ",\"stall\":" << num(wf.stall) << ",\"stages\":{";
    bool first = true;
    for (int i = 0; i < kAttrStageCount; ++i) {
      const auto& s = wf.stages[static_cast<std::size_t>(i)];
      if (s.wait == 0.0 && s.service == 0.0) continue;
      if (!first) out << ',';
      first = false;
      out << '"' << kStageNames[i] << "\":{\"wait\":" << num(s.wait)
          << ",\"service\":" << num(s.service) << '}';
    }
    out << '}';
    if (!wf.hops.empty()) {
      out << ",\"hops\":[";
      for (std::size_t i = 0; i < wf.hops.size(); ++i) {
        if (i) out << ',';
        out << "{\"port\":\"" << json_escape(wf.hops[i].port)
            << "\",\"wait\":" << num(wf.hops[i].wait)
            << ",\"service\":" << num(wf.hops[i].service) << '}';
      }
      out << ']';
    }
    if (wf.pred.valid) {
      out << ",\"pred\":{\"local_wait\":" << num(wf.pred.local_wait)
          << ",\"local_service\":" << num(wf.pred.local_service)
          << ",\"uplink\":" << num(wf.pred.uplink)
          << ",\"edge_wait\":" << num(wf.pred.edge_wait)
          << ",\"edge_service\":" << num(wf.pred.edge_service)
          << ",\"x\":" << num(wf.pred.x) << '}';
    }
    out << "}\n";
  }
}

void write_calibration_csv(std::ostream& out,
                           const std::vector<TaskWaterfall>& rows,
                           const std::vector<std::string>& class_names) {
  out << "task,class,device,block,retries,offloaded,x";
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    out << ",pred_" << kCalibNames[ci] << ",actual_" << kCalibNames[ci]
        << ",err_" << kCalibNames[ci];
  }
  out << '\n';
  for (const auto& wf : rows) {
    if (!wf.pred.valid) continue;
    out << wf.task << ',' << cls_name_of(wf, class_names) << ',' << wf.device
        << ',' << wf.block << ',' << wf.retries << ','
        << (wf.offloaded ? 1 : 0) << ',' << num(wf.pred.x);
    const double preds[kCalibComponentCount] = {
        wf.pred.local_wait, wf.pred.local_service, wf.pred.uplink,
        wf.pred.edge_wait, wf.pred.edge_service};
    const auto& local =
        wf.stages[static_cast<std::size_t>(AttrStage::kLocalCompute)];
    const auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
    const auto& edge =
        wf.stages[static_cast<std::size_t>(AttrStage::kEdgeCompute)];
    const double actuals[kCalibComponentCount] = {
        local.wait, local.service, up.wait + up.service, edge.wait,
        edge.service};
    for (int ci = 0; ci < kCalibComponentCount; ++ci) {
      out << ',' << num(preds[ci]) << ',' << num(actuals[ci]) << ',';
      double err = 0.0;
      if (wf.calibration_error(static_cast<CalibComponent>(ci), &err))
        out << num(err);
    }
    out << '\n';
  }
}

}  // namespace leime::obs
