#include "sim/observer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/lyapunov.h"
#include "net/fabric.h"
#include "util/output.h"

namespace leime::sim {

namespace {

// TCTs and phase durations span microseconds (cloud compute) to tens of
// seconds (fault-window backlogs): ~2.6 buckets/decade over 9 decades. The
// attribution fold's geometry, so completion reuses its bucket indices.
const obs::HistogramOptions kLatencyBuckets = obs::attr_latency_buckets();
// Queue backlogs and per-slot drift/penalty magnitudes.
const obs::HistogramOptions kQueueBuckets{1e-2, 1e4, 36};

// Device-class names feed composed metric-safe strings and trace tracks;
// anything outside the registry alphabet is replaced defensively (the INI
// parser rejects bad names up front — this covers programmatic embedders).
std::string sanitize_class(std::string name) {
  if (name.empty()) return "default";
  for (char& c : name) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return name;
}

constexpr const char* kPhaseNames[kPhaseCount] = {
    "local_block1", "uplink",       "edge_block1",
    "uplink",       "edge_block2",  "edge_cloud_link",
    "cloud_block3", "return_link",  "cloud_return_link",
};

}  // namespace

const char* phase_name(Phase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

RecordingObserver::RecordingObserver(ObsConfig config, std::size_t num_devices,
                                     std::vector<std::string> device_classes)
    : cfg_(std::move(config)),
      metrics_on_(cfg_.metrics_enabled()),
      series_on_(cfg_.timeseries_enabled()),
      attr_on_(cfg_.attribution_enabled()),
      keep_rows_(cfg_.keep_waterfalls || !cfg_.attribution_out.empty() ||
                 !cfg_.calibration_out.empty()),
      sampler_(cfg_.effective_trace_sample()),
      kept_since_slot_(num_devices, 0),
      offloaded_since_slot_(num_devices, 0),
      last_pred_(num_devices) {
  device_classes.resize(num_devices, std::string("default"));
  for (auto& c : device_classes) c = sanitize_class(std::move(c));
  class_names_ = device_classes;
  std::sort(class_names_.begin(), class_names_.end());
  class_names_.erase(std::unique(class_names_.begin(), class_names_.end()),
                     class_names_.end());
  if (class_names_.empty()) class_names_.push_back("default");
  device_class_.reserve(num_devices);
  for (const auto& c : device_classes)
    device_class_.push_back(static_cast<std::size_t>(
        std::lower_bound(class_names_.begin(), class_names_.end(), c) -
        class_names_.begin()));
  if (attr_on_) {
    for (std::size_t p = 0; p < kPhaseCount; ++p)
      phase_stage_[p] =
          obs::attr_stage_for_phase(phase_name(static_cast<Phase>(p)));
    attr_fold_ = obs::AttributionFold(class_names_.size());
  }
  if (cfg_.slo.enabled())
    slo_ = std::make_unique<obs::SloMonitor>(cfg_.slo, class_names_.size());
  if (cfg_.provenance.enabled())
    prov_ = std::make_unique<obs::ProvenanceRecorder>(cfg_.provenance);
  if (metrics_on_) {
    // Register everything up front so exported snapshots always carry the
    // full schema (zero-valued metrics included) and hot-path updates are
    // map-free.
    c_generated_ = &registry_.counter("leime_tasks_generated_total",
                                      "tasks generated across the fleet");
    c_completed_ = &registry_.counter("leime_tasks_completed_total",
                                      "tasks completed (including warmup)");
    c_offloaded_ = &registry_.counter(
        "leime_tasks_offloaded_total",
        "tasks whose first block was offloaded at dispatch");
    c_parked_ = &registry_.counter(
        "leime_tasks_parked_total",
        "tasks terminally parked (edge never returned)");
    c_failovers_ = &registry_.counter(
        "leime_fault_failovers_total",
        "edge-side work failed back to devices");
    c_retries_ = &registry_.counter("leime_fault_retries_total",
                                    "task-timeout re-dispatches");
    c_local_fallbacks_ = &registry_.counter(
        "leime_fault_local_fallbacks_total",
        "retry budgets exhausted, task finished on device");
    c_edge_crashes_ = &registry_.counter("leime_fault_edge_crashes_total",
                                         "edge server crashes");
    c_churn_ = &registry_.counter("leime_fault_churn_events_total",
                                  "device leave/rejoin events");
    c_decisions_ = &registry_.counter("leime_slot_decisions_total",
                                      "per-device controller decisions");
    h_tct_ = &registry_.histogram("leime_task_tct_seconds",
                                  "task completion time of counted tasks",
                                  kLatencyBuckets);
    h_q_ = &registry_.histogram("leime_queue_device_tasks",
                                "Q_i sampled at decision time (eq. 10)",
                                kQueueBuckets);
    h_h_ = &registry_.histogram("leime_queue_edge_tasks",
                                "H_i sampled at decision time (eq. 11)",
                                kQueueBuckets);
    h_x_ = &registry_.histogram("leime_offload_ratio",
                                "chosen x_i per decision",
                                obs::HistogramOptions{1e-3, 1.0, 30});
    h_penalty_ = &registry_.histogram(
        "leime_slot_penalty_seconds",
        "V*Y_i(t) penalty term at the chosen x (eq. 19)", kQueueBuckets);
    g_edge_up_ =
        &registry_.gauge("leime_edge_up", "1 while the edge server is up");
    g_edge_up_->set(1.0);
    g_absent_ = &registry_.gauge("leime_devices_absent",
                                 "devices currently churned out of the fleet");
    g_sim_time_ =
        &registry_.gauge("leime_sim_time_seconds", "simulated clock at run end");
  }
  if (metrics_on_ && attr_on_) {
    // Registered only when attribution is on so the base metric schema
    // (and its golden exports) stays byte-identical without it.
    c_attr_tasks_ = &registry_.counter("leime_attr_tasks_total",
                                       "waterfalls assembled at completion");
    c_attr_incomplete_ = &registry_.counter(
        "leime_attr_incomplete_total",
        "ledger entries dropped (parked or open at run end)");
    c_attr_calibrated_ = &registry_.counter(
        "leime_attr_calibrated_total",
        "completed tasks joined with a decision-time prediction");
    h_attr_stall_ = &registry_.histogram(
        "leime_attr_stall_seconds",
        "end-to-end time not covered by any stage span", kLatencyBuckets);
    for (int i = 0; i < obs::kAttrStageCount; ++i) {
      const std::string prefix =
          std::string("leime_attr_") +
          obs::attr_stage_name(static_cast<obs::AttrStage>(i));
      h_attr_wait_[static_cast<std::size_t>(i)] = &registry_.histogram(
          prefix + "_wait_seconds", "per-task stage wait", kLatencyBuckets);
      h_attr_service_[static_cast<std::size_t>(i)] =
          &registry_.histogram(prefix + "_service_seconds",
                               "per-task stage service", kLatencyBuckets);
    }
    for (int ci = 0; ci < obs::kCalibComponentCount; ++ci) {
      const std::string prefix =
          std::string("leime_attr_calib_") +
          obs::calib_component_name(static_cast<obs::CalibComponent>(ci));
      h_calib_over_[static_cast<std::size_t>(ci)] = &registry_.histogram(
          prefix + "_over_seconds",
          "signed prediction error when actual exceeds predicted",
          kLatencyBuckets);
      h_calib_under_[static_cast<std::size_t>(ci)] = &registry_.histogram(
          prefix + "_under_seconds",
          "signed prediction error when predicted exceeds actual",
          kLatencyBuckets);
    }
  }
  if (metrics_on_ && slo_) {
    c_slo_completions_ = &registry_.counter(
        "leime_slo_completions_total", "counted completions checked");
    c_slo_misses_ = &registry_.counter("leime_slo_misses_total",
                                       "completions over the deadline");
    c_slo_fired_ = &registry_.counter("leime_slo_alerts_fired_total",
                                      "burn-rate alerts fired");
    c_slo_cleared_ = &registry_.counter("leime_slo_alerts_cleared_total",
                                        "burn-rate alerts cleared");
    g_slo_burn_ = &registry_.gauge(
        "leime_slo_burn_rate", "window miss rate / target at last completion");
    h_slo_overshoot_ = &registry_.histogram(
        "leime_slo_overshoot_seconds", "tct minus deadline for missed tasks",
        kLatencyBuckets);
  }
  if (metrics_on_ && prov_) {
    c_prov_decisions_ = &registry_.counter(
        "leime_prov_decisions_total", "policy decisions seen (incl. unsampled)");
    c_prov_sampled_ = &registry_.counter("leime_prov_sampled_total",
                                         "decision records captured");
    c_prov_oracle_ = &registry_.counter(
        "leime_prov_oracle_runs_total",
        "sampled decisions re-run through the exhaustive oracle");
    c_prov_evictions_ = &registry_.counter(
        "leime_prov_ring_evictions_total",
        "records aged out of the flight-recorder window");
    c_prov_dumps_ = &registry_.counter("leime_prov_dumps_total",
                                       "SLO-fire flight-recorder dumps");
    h_regret_[static_cast<std::size_t>(obs::DecisionKind::kExitSetting)] =
        &registry_.histogram("leime_regret_exit_setting_seconds",
                             "chosen minus oracle expected TCT (eq. 4)",
                             obs::regret_buckets());
    h_regret_[static_cast<std::size_t>(obs::DecisionKind::kOffload)] =
        &registry_.histogram(
            "leime_regret_offload_seconds",
            "chosen minus oracle drift-plus-penalty (eq. 19)",
            obs::regret_buckets());
  }
}

void RecordingObserver::on_task_generated(std::uint64_t task, int device,
                                          double t, int block,
                                          bool offloaded) {
  if (attr_on_) {
    obs::PredictedComponents pred;
    if (device >= 0 && static_cast<std::size_t>(device) < last_pred_.size())
      pred = last_pred_[static_cast<std::size_t>(device)];
    ledger_.on_generated(task, device, class_of(device), t, block, offloaded,
                         pred);
  }
  if (metrics_on_) {
    c_generated_->inc();
    if (offloaded) c_offloaded_->inc();
  }
  if (series_on_ && device >= 0 &&
      static_cast<std::size_t>(device) < kept_since_slot_.size()) {
    auto& bucket = offloaded ? offloaded_since_slot_ : kept_since_slot_;
    ++bucket[static_cast<std::size_t>(device)];
  }
}

void RecordingObserver::on_phase_begin(std::uint64_t task, int device,
                                       Phase phase, std::string_view track,
                                       double t_queued, double exec_start,
                                       int attempt) {
  if (attr_on_)
    ledger_.on_phase_begin(task, phase_stage_[static_cast<std::size_t>(phase)],
                           t_queued, exec_start);
  if (!sampler_.sampled(task)) return;
  // A task occupies one phase at a time; a begin while another span is
  // open means the previous phase's end was skipped — close it defensively
  // so the trace stays well-formed.
  close_span(task, t_queued, "lost");
  OpenSpan span;
  span.phase = phase_name(phase);
  span.track.assign(track.data(), track.size());
  span.t_begin = t_queued;
  span.device = device;
  span.attempt = attempt;
  open_[task] = std::move(span);
}

void RecordingObserver::close_span(std::uint64_t task, double t,
                                   std::string_view outcome) {
  auto it = open_.find(task);
  if (it == open_.end()) return;
  obs::SpanEvent ev;
  ev.task_id = task;
  ev.device = it->second.device;
  ev.phase = std::move(it->second.phase);
  ev.track = std::move(it->second.track);
  ev.outcome.assign(outcome.data(), outcome.size());
  ev.t_begin = it->second.t_begin;
  ev.t_end = t;
  ev.attempt = it->second.attempt;
  open_.erase(it);
  trace_.add_span(std::move(ev));
}

void RecordingObserver::on_phase_end(std::uint64_t task, double t) {
  if (attr_on_) ledger_.on_phase_end(task, t);
  if (!sampler_.sampled(task)) return;
  close_span(task, t, "ok");
}

void RecordingObserver::on_phase_abort(std::uint64_t task, double t,
                                       std::string_view outcome) {
  // Aborted attempts still accumulate in the ledger: the time was spent,
  // it just ended in failover/retry instead of progress.
  if (attr_on_) ledger_.on_phase_end(task, t);
  if (!sampler_.sampled(task)) return;
  close_span(task, t, outcome);
}

void RecordingObserver::on_task_complete(std::uint64_t task, int device,
                                         double t_arrive, double t_complete,
                                         int block, int retries,
                                         bool counted) {
  (void)block;
  const double tct = t_complete - t_arrive;
  if (metrics_on_) c_completed_->inc();
  if (attr_on_ &&
      ledger_.on_complete(task, t_complete, retries, counted, &done_)) {
    // The fold computes each value's bucket once; the metrics histograms
    // share its geometry and reuse the indices.
    const obs::FoldedWaterfall folded = attr_fold_.add(done_);
    if (metrics_on_) {
      if (counted)
        h_tct_->observe_at(
            done_.e2e == tct ? folded.e2e_bucket : h_tct_->bucket(tct), tct);
      c_attr_tasks_->inc();
      h_attr_stall_->observe_at(folded.stall_bucket, done_.stall);
      for (std::size_t i = 0; i < done_.stages.size(); ++i) {
        const auto& s = done_.stages[i];
        if (s.wait == 0.0 && s.service == 0.0) continue;
        h_attr_wait_[i]->observe_at(folded.wait_bucket[i], s.wait);
        h_attr_service_[i]->observe_at(folded.service_bucket[i], s.service);
      }
      for (std::size_t ci = 0; ci < folded.calib_err.size(); ++ci) {
        if (!(folded.calibrated >> ci & 1u)) continue;
        const double err = folded.calib_err[ci];
        (err >= 0.0 ? h_calib_over_ : h_calib_under_)[ci]->observe(
            err >= 0.0 ? err : -err);
      }
      if (folded.calibrated) c_attr_calibrated_->inc();
    }
    if (keep_rows_) waterfalls_.push_back(done_);
  } else if (metrics_on_ && counted) {
    h_tct_->observe(tct);
  }
  if (slo_ && counted) {
    const std::size_t cls = class_of(device);
    const obs::SloAlert* alert = slo_->on_completion(cls, t_complete, tct);
    if (metrics_on_) {
      c_slo_completions_->inc();
      if (tct > cfg_.slo.deadline) {
        c_slo_misses_->inc();
        h_slo_overshoot_->observe(tct - cfg_.slo.deadline);
      }
      g_slo_burn_->set(slo_->burn_rate(cls));
    }
    if (alert) {
      if (metrics_on_) (alert->fire ? c_slo_fired_ : c_slo_cleared_)->inc();
      if (sampler_.every() > 0) {
        obs::MarkEvent mark;
        mark.name = alert->fire ? "slo_burn_fire" : "slo_burn_clear";
        mark.track = "slo/" + class_names_[cls];
        mark.t = t_complete;
        trace_.add_mark(std::move(mark));
      }
      // Flight-recorder postmortem: every fire dumps the decision window
      // that led into it plus whatever work was mid-flight. Clears do not
      // dump (the interesting state is what *caused* the burn).
      if (alert->fire && prov_ && !cfg_.provenance.dump_out.empty()) {
        if (!dump_opened_) {
          dump_stream_ = util::open_file(cfg_.provenance.dump_out,
                                         "provenance");
          dump_opened_ = true;
        }
        std::vector<obs::OpenSpanNote> spans;
        spans.reserve(open_.size());
        for (const auto& [task_id, span] : open_) {
          obs::OpenSpanNote note;
          note.task = task_id;
          note.device = span.device;
          note.phase = span.phase;
          note.track = span.track;
          note.t_begin = span.t_begin;
          spans.push_back(std::move(note));
        }
        obs::write_flight_dump(dump_stream_, alert->t, class_names_[cls],
                               alert->miss_rate, alert->burn,
                               alert->window_tasks, prov_->window(), spans);
        dump_stream_.flush();
        if (!dump_stream_.good())
          throw std::runtime_error("provenance: write error on " +
                                   cfg_.provenance.dump_out);
        prov_->note_dump();
      }
    }
  }
  if (sampler_.sampled(task)) close_span(task, t_complete, "ok");
}

void RecordingObserver::on_task_parked(std::uint64_t task, int device,
                                       double t) {
  if (attr_on_ && ledger_.on_parked(task)) {
    // A parked task has no completion, so no waterfall: it only counts.
    attr_fold_.add_incomplete(1);
    if (metrics_on_) c_attr_incomplete_->inc();
  }
  if (metrics_on_) c_parked_->inc();
  if (sampler_.sampled(task)) {
    close_span(task, t, "parked");
    obs::MarkEvent mark;
    mark.name = "parked";
    mark.track = "device" + std::to_string(device);
    mark.t = t;
    mark.task_id = task;
    trace_.add_mark(std::move(mark));
  }
}

void RecordingObserver::on_slot_decision(int device, double t,
                                         const SlotTelemetry& s) {
  if (attr_on_ && device >= 0 &&
      static_cast<std::size_t>(device) < last_pred_.size())
    last_pred_[static_cast<std::size_t>(device)] = s.pred;
  if (metrics_on_) {
    c_decisions_->inc();
    h_q_->observe(s.q);
    h_h_->observe(s.h);
    h_x_->observe(s.x);
    h_penalty_->observe(s.penalty);
    g_edge_up_->set(s.edge_up ? 1.0 : 0.0);
  }
  if (series_on_) {
    obs::SlotSample sample;
    sample.t = t;
    sample.device = device;
    sample.q = s.q;
    sample.h = s.h;
    sample.x = s.x;
    sample.drift = s.drift;
    sample.penalty = s.penalty;
    sample.edge_up = s.edge_up;
    sample.link_up = s.link_up;
    sample.edge_share_flops = s.edge_share_flops;
    if (device >= 0 &&
        static_cast<std::size_t>(device) < kept_since_slot_.size()) {
      const auto d = static_cast<std::size_t>(device);
      sample.kept_arrivals = kept_since_slot_[d];
      sample.offloaded_arrivals = offloaded_since_slot_[d];
      kept_since_slot_[d] = 0;
      offloaded_since_slot_[d] = 0;
    }
    series_.append(sample);
  }
  if (prov_ && s.state) {
    std::uint64_t seq = 0;
    bool oracle = false;
    if (prov_->begin_decision(&seq, &oracle)) {
      // All the heavy work (grid margin scan, oracle minimisation) happens
      // only on sampled ordinals; nothing here consumes RNG or schedules
      // events, so the run itself is unperturbed.
      const core::DeviceSlotState& st = *s.state;
      obs::DecisionRecord r;
      r.seq = seq;
      r.t = t;
      r.device = device;
      r.cls = class_names_[class_of(device)];
      r.kind = obs::DecisionKind::kOffload;
      r.path = s.batched ? obs::DecisionPath::kBatch
                         : obs::DecisionPath::kDirect;
      r.bandwidth = st.bandwidth;
      r.edge_flops = st.edge_share_flops;
      r.queue_device = st.queue_device;
      r.queue_edge = st.queue_edge;
      r.x = s.x;
      r.cost = core::drift_plus_penalty(st, s.x);
      // Runner-up margin on a fixed grid over the feasible interval: the
      // gap between the best and second-best eq. 19 values the controller
      // could have picked. Deterministic (no RNG, fixed grid), so the
      // record stream is thread-count-invariant.
      constexpr int kMarginGrid = 33;
      const core::Interval iv = core::feasible_offload_interval(st);
      double best = std::numeric_limits<double>::infinity();
      double second = best;
      for (int k = 0; k < kMarginGrid; ++k) {
        const double x =
            iv.lo + (iv.hi - iv.lo) * static_cast<double>(k) /
                        static_cast<double>(kMarginGrid - 1);
        const double c = core::drift_plus_penalty(st, x);
        if (c < best) {
          second = best;
          best = c;
        } else if (c < second) {
          second = c;
        }
      }
      r.explored = kMarginGrid;
      if (second < std::numeric_limits<double>::infinity()) {
        r.margin_valid = true;
        r.margin = second - best;
      }
      if (oracle) {
        // The exact per-slot oracle (coarse grid + golden section). The
        // min() clamp guarantees regret >= 0 even though the chosen x may
        // sit between grid points the solvers disagree on by an ULP.
        const double ox = core::minimize_drift_plus_penalty(st);
        r.oracle = true;
        r.oracle_cost = std::min(core::drift_plus_penalty(st, ox), r.cost);
        r.regret = r.cost - r.oracle_cost;
      }
      prov_->record(std::move(r));
    }
  }
}

void RecordingObserver::on_fault(std::string_view kind, int device, double t) {
  if (metrics_on_) {
    if (kind == "failover") c_failovers_->inc();
    else if (kind == "task_timeout") c_retries_->inc();
    else if (kind == "local_fallback") c_local_fallbacks_->inc();
    else if (kind == "edge_crash") c_edge_crashes_->inc();
    else if (kind == "churn_leave" || kind == "churn_join") c_churn_->inc();
    if (kind == "edge_crash") g_edge_up_->set(0.0);
    if (kind == "edge_restart") g_edge_up_->set(1.0);
    if (kind == "churn_leave") g_absent_->set(g_absent_->value() + 1.0);
    if (kind == "churn_join") g_absent_->set(g_absent_->value() - 1.0);
  }
  if (sampler_.every() > 0) {
    obs::MarkEvent mark;
    mark.name.assign(kind.data(), kind.size());
    mark.track = device < 0 ? std::string("edge")
                            : "device" + std::to_string(device);
    mark.t = t;
    trace_.add_mark(std::move(mark));
  }
}

void RecordingObserver::on_net_hop(std::uint64_t task, std::uint32_t port,
                                   double t_queued, double exec_start,
                                   double t_end) {
  if (attr_on_) ledger_.on_hop(task, port, t_queued, exec_start, t_end);
}

void RecordingObserver::on_net_fabric(const net::Fabric& fabric, double t) {
  if (metrics_on_) fabric.export_metrics(registry_, t);
  if (attr_on_) {
    port_names_.clear();
    for (std::uint32_t id = 0; id < fabric.num_ports(); ++id)
      port_names_.push_back(fabric.port(id).name);
  }
}

void RecordingObserver::on_run_end(double t) {
  // Close any spans still open at the end of the drain (never-healing
  // faults leave parked tasks mid-phase).
  while (!open_.empty()) close_span(open_.begin()->first, t, "unfinished");
  if (attr_on_) {
    // Entries still open never completed: count them, drop the partials.
    const auto open = static_cast<std::uint64_t>(ledger_.open_tasks());
    if (open > 0) {
      attr_fold_.add_incomplete(open);
      if (metrics_on_) c_attr_incomplete_->inc(open);
    }
    // The drain is over: free the in-flight storage before finalize and
    // the exports allocate.
    ledger_.clear();
  }
  if (prov_) {
    if (metrics_on_) {
      // The recorder accumulates under its own mutex; the registry is not
      // thread-safe, so the totals land here, after the drain.
      const obs::ProvenanceSummary sum = prov_->summary();
      c_prov_decisions_->inc(sum.decisions);
      c_prov_sampled_->inc(sum.sampled);
      c_prov_oracle_->inc(sum.oracle_runs);
      c_prov_evictions_->inc(sum.ring_evictions);
      c_prov_dumps_->inc(sum.dumps);
      for (int k = 0; k < obs::kDecisionKindCount; ++k)
        h_regret_[static_cast<std::size_t>(k)]->merge(
            sum.kind_regret[static_cast<std::size_t>(k)]);
    }
    if (dump_opened_)
      util::close_file(dump_stream_, cfg_.provenance.dump_out, "provenance");
  }
  if (metrics_on_) g_sim_time_->set(t);
}

std::size_t RecordingObserver::class_of(int device) const {
  if (device >= 0 && static_cast<std::size_t>(device) < device_class_.size())
    return device_class_[static_cast<std::size_t>(device)];
  return 0;
}

obs::AttributionSummary RecordingObserver::attribution_summary() const {
  if (!attr_on_) return {};
  return attr_fold_.freeze(class_names_, port_names_);
}

obs::SloSummary RecordingObserver::slo_summary() const {
  if (!slo_) return {};
  return slo_->summary(class_names_);
}

obs::ProvenanceSummary RecordingObserver::provenance_summary() const {
  if (!prov_) return {};
  return prov_->summary();
}

void RecordingObserver::export_outputs() const {
  if (!cfg_.metrics_out.empty())
    util::write_file(cfg_.metrics_out, "metrics", [&](std::ostream& o) {
      registry_.snapshot().to_prometheus(o);
    });
  if (!cfg_.metrics_jsonl.empty())
    util::write_file(cfg_.metrics_jsonl, "metrics", [&](std::ostream& o) {
      registry_.snapshot().to_jsonl(o);
    });
  if (!cfg_.trace_out.empty())
    util::write_file(cfg_.trace_out, "trace",
                     [&](std::ostream& o) { trace_.write_chrome_trace(o); });
  if (!cfg_.timeseries_out.empty()) {
    obs::CsvTimeseriesSink sink(cfg_.timeseries_out);
    for (const auto& sample : series_.samples()) sink.append(sample);
    sink.close();
  }
  if (!cfg_.attribution_out.empty())
    util::write_file(cfg_.attribution_out, "attribution", [&](std::ostream& o) {
      obs::write_waterfalls_jsonl(o, waterfalls_, class_names_, port_names_);
    });
  if (!cfg_.calibration_out.empty())
    util::write_file(cfg_.calibration_out, "calibration", [&](std::ostream& o) {
      obs::write_calibration_csv(o, waterfalls_, class_names_);
    });
  if (slo_ && !cfg_.slo.alerts_out.empty())
    util::write_file(cfg_.slo.alerts_out, "slo", [&](std::ostream& o) {
      slo_->write_alerts_jsonl(o, class_names_);
    });
  if (prov_ && !cfg_.provenance.decisions_out.empty())
    util::write_file(cfg_.provenance.decisions_out, "provenance",
                     [&](std::ostream& o) {
                       obs::write_decisions_jsonl(o, prov_->window());
                     });
}

}  // namespace leime::sim
