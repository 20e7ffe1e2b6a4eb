#include "obs/attribution.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>

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

std::string port_label(std::uint32_t id,
                       const std::vector<std::string>& port_names) {
  if (id < port_names.size()) return port_names[id];
  return "port" + std::to_string(id);
}

// ---------------------------------------------------------------------------
// LatencyLedger

std::uint32_t LatencyLedger::home(std::uint64_t task) const {
  // Fibonacci hashing spreads consecutive task ids over the table.
  return static_cast<std::uint32_t>((task * 0x9E3779B97F4A7C15ull) >> 32) &
         static_cast<std::uint32_t>(index_.size() - 1);
}

std::uint32_t LatencyLedger::position(std::uint64_t task) const {
  if (index_.empty()) return kNone;
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  for (std::uint32_t pos = home(task);; pos = (pos + 1) & mask) {
    const Position& p = index_[pos];
    if (p.slot == kNone) return kNone;
    if (p.task == task) return pos;
  }
}

LatencyLedger::Entry* LatencyLedger::find(std::uint64_t task) {
  const std::uint32_t pos = position(task);
  return pos == kNone ? nullptr : &pool_[index_[pos].slot];
}

void LatencyLedger::grow_index() {
  std::vector<Position> old = std::move(index_);
  index_.assign(old.empty() ? 64 : 2 * old.size(), Position{});
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  for (const Position& p : old) {
    if (p.slot == kNone) continue;
    std::uint32_t pos = home(p.task);
    while (index_[pos].slot != kNone) pos = (pos + 1) & mask;
    index_[pos] = p;
  }
}

void LatencyLedger::erase(std::uint32_t pos) {
  const std::uint32_t slot = index_[pos].slot;
  Entry& e = pool_[slot];
  if (e.first_hop != kNone) {
    hops_[e.last_hop].next = free_hop_;
    free_hop_ = e.first_hop;
  }
  e.next_free = free_entry_;
  free_entry_ = slot;
  --open_;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless their home lies cyclically in (hole, member].
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  std::uint32_t hole = pos;
  for (std::uint32_t next = (hole + 1) & mask; index_[next].slot != kNone;
       next = (next + 1) & mask) {
    const std::uint32_t h = home(index_[next].task);
    const bool stays = hole <= next ? (hole < h && h <= next)
                                    : (hole < h || h <= next);
    if (stays) continue;
    index_[hole] = index_[next];
    hole = next;
  }
  index_[hole] = Position{};
}

void LatencyLedger::on_generated(std::uint64_t task, int device,
                                 std::size_t cls, double t, int block,
                                 bool offloaded,
                                 const PredictedComponents& pred) {
  if (2 * (open_ + 1) > index_.size()) grow_index();
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  std::uint32_t pos = home(task);
  while (index_[pos].slot != kNone && index_[pos].task != task)
    pos = (pos + 1) & mask;
  if (index_[pos].slot == kNone) {
    std::uint32_t slot = free_entry_;
    if (slot != kNone) {
      free_entry_ = pool_[slot].next_free;
      pool_[slot] = Entry{};
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    index_[pos] = {task, slot};
    ++open_;
  }
  Entry& e = pool_[index_[pos].slot];
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

void LatencyLedger::on_phase_begin(std::uint64_t task, AttrStage stage,
                                   double t_queued, double exec_start) {
  Entry* e = find(task);
  if (!e) return;
  close_open(*e, t_queued);
  e->open = true;
  e->stage = stage;
  e->t_queued = t_queued;
  e->exec_start = std::max(t_queued, exec_start);
  e->hop_wait = 0.0;
  e->saw_hops = false;
}

void LatencyLedger::on_phase_end(std::uint64_t task, double t) {
  if (Entry* e = find(task)) close_open(*e, t);
}

void LatencyLedger::on_hop(std::uint64_t task, std::uint32_t port,
                           double t_queued, double exec_start, double t_end) {
  Entry* e = find(task);
  if (!e || !e->open || !attr_stage_is_link(e->stage)) return;
  std::uint32_t node = free_hop_;
  if (node != kNone) {
    free_hop_ = hops_[node].next;
  } else {
    node = static_cast<std::uint32_t>(hops_.size());
    hops_.emplace_back();
  }
  HopNode& n = hops_[node];
  n.hop.port = port;
  n.hop.wait = std::max(0.0, exec_start - t_queued);
  n.hop.service = std::max(0.0, t_end - std::max(t_queued, exec_start));
  n.next = kNone;
  if (e->first_hop == kNone)
    e->first_hop = node;
  else
    hops_[e->last_hop].next = node;
  e->last_hop = node;
  e->hop_wait += n.hop.wait;
  e->saw_hops = true;
}

bool LatencyLedger::on_parked(std::uint64_t task) {
  const std::uint32_t pos = position(task);
  if (pos == kNone) return false;
  erase(pos);
  return true;
}

bool LatencyLedger::on_complete(std::uint64_t task, double t_complete,
                                int retries, bool counted, TaskWaterfall* out) {
  const std::uint32_t pos = position(task);
  if (pos == kNone) return false;
  Entry& e = pool_[index_[pos].slot];
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
  out->hops.clear();
  for (std::uint32_t n = e.first_hop; n != kNone; n = hops_[n].next)
    out->hops.push_back(hops_[n].hop);
  out->pred = e.pred;
  out->e2e = t_complete - e.t_arrive;
  double spans = 0.0;
  for (const auto& s : out->stages) spans += s.wait + s.service;
  out->stall = out->e2e - spans;
  erase(pos);
  return true;
}

// ---------------------------------------------------------------------------
// AttributionFold

AttributionFold::AttributionFold(std::size_t classes) : classes_(classes) {}

FoldedWaterfall AttributionFold::add(const TaskWaterfall& wf) {
  FoldedWaterfall f;
  ++tasks_;
  AttributionSummary::ClassAccum& c = classes_[wf.cls];
  ++c.tasks;
  for (std::size_t i = 0; i < wf.stages.size(); ++i) {
    const auto& s = wf.stages[i];
    if (s.wait == 0.0 && s.service == 0.0) continue;
    StageAccum& a = c.stages[i];
    ++a.count;
    a.wait += s.wait;
    a.service += s.service;
    f.wait_bucket[i] = a.wait_hist.bucket(s.wait);
    f.service_bucket[i] = a.service_hist.bucket(s.service);
    a.wait_hist.observe_at(f.wait_bucket[i], s.wait);
    a.service_hist.observe_at(f.service_bucket[i], s.service);
  }
  f.e2e_bucket = c.e2e.bucket(wf.e2e);
  c.e2e.observe_at(f.e2e_bucket, wf.e2e);
  f.stall_bucket = c.stall.bucket(wf.stall);
  c.stall.observe_at(f.stall_bucket, wf.stall);
  for (const HopSpan& hop : wf.hops) {
    if (hop.port >= ports_.size()) ports_.resize(hop.port + std::size_t{1});
    AttributionSummary::PortAccum& p = ports_[hop.port];
    ++p.spans;
    p.wait += hop.wait;
    p.service += hop.service;
  }
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    double err = 0.0;
    if (!wf.calibration_error(static_cast<CalibComponent>(ci), &err)) continue;
    f.calibrated |= 1u << ci;
    f.calib_err[static_cast<std::size_t>(ci)] = err;
    auto& ca = calibration_[static_cast<std::size_t>(ci)];
    ++ca.count;
    ca.err_sum += err;
    ca.abs_err_sum += std::abs(err);
    ca.max_abs_err = std::max(ca.max_abs_err, std::abs(err));
  }
  if (f.calibrated) ++calibrated_;
  return f;
}

AttributionSummary AttributionFold::freeze(
    const std::vector<std::string>& class_names,
    const std::vector<std::string>& port_names) const {
  AttributionSummary s;
  s.active = true;
  s.tasks = tasks_;
  s.incomplete = incomplete_;
  s.calibration = calibration_;
  s.calibrated_tasks = calibrated_;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i].tasks == 0) continue;
    s.classes.push_back(classes_[i]);
    s.classes.back().name = class_names[i];
  }
  std::sort(s.classes.begin(), s.classes.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  for (std::size_t id = 0; id < ports_.size(); ++id) {
    if (ports_[id].spans == 0) continue;
    s.ports.emplace_back(
        port_label(static_cast<std::uint32_t>(id), port_names), ports_[id]);
  }
  std::sort(s.ports.begin(), s.ports.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return s;
}

// ---------------------------------------------------------------------------
// AttributionSummary

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
                            const std::vector<std::string>& class_names,
                            const std::vector<std::string>& port_names) {
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
        out << "{\"port\":\""
            << json_escape(port_label(wf.hops[i].port, port_names))
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
