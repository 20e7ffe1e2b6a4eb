// Observability hooks for the discrete-event simulator.
//
// The simulator carries an optional Observer pointer and calls it at task
// lifecycle transitions (generated, phase begin/end/abort, complete), at
// each per-device slot decision (with the Lyapunov telemetry of eqs. 10-20)
// and at fault events. When no observer is attached every hook site costs a
// single branch on a null pointer; no hook consumes RNG, schedules events
// or otherwise perturbs the run, so a disabled run is bit-identical to a
// build without the layer (the golden-JSONL contract, DESIGN.md §8).
//
// RecordingObserver is the standard implementation: it composes the three
// obs pillars — a metrics registry, a chrome-trace span buffer with a
// deterministic 1-in-N task sampler, and a per-slot time-series sink — and
// can export each to a file at the end of the run.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace_buffer.h"

namespace leime::net {
class Fabric;
}

namespace leime::core {
struct DeviceSlotState;
}

namespace leime::sim {

/// Per-device, per-slot control-loop telemetry captured at decision time.
struct SlotTelemetry {
  double x = 0.0;        ///< chosen offload ratio x_i(t)
  double q = 0.0;        ///< Q_i(t), tasks (eq. 10 backlog)
  double h = 0.0;        ///< H_i(t), tasks (eq. 11 backlog)
  double drift = 0.0;    ///< Q·(A−b) + H·(D−c) at the chosen x (eq. 19)
  double penalty = 0.0;  ///< V·Y_i(t) at the chosen x (eq. 19)
  bool edge_up = true;
  bool link_up = true;
  double edge_share_flops = 0.0;  ///< p_i·F^e currently allocated
  /// Eq. 4-9 component latencies the decision implies for the device's next
  /// task (policy/prediction.h); joined with the realized waterfall at
  /// completion for calibration. Invalid when the simulator runs without an
  /// observer (the capture is skipped on the zero-overhead path).
  obs::PredictedComponents pred;
  /// The full decision input, valid only for the duration of the
  /// on_slot_decision call (it points at the simulator's scratch state).
  /// Lets provenance re-evaluate the eq. 19 objective at other x values
  /// without the simulator paying for it when provenance is off. Null when
  /// the caller has no state to share.
  const core::DeviceSlotState* state = nullptr;
  /// The decision came out of a batched eq. 20 fleet update (the ratio may
  /// have been reused from a bit-identical peer state).
  bool batched = false;
};

/// A task's phase: one leg of its pipeline (DESIGN.md §16), in pipeline
/// order — a compute block on the device, edge or cloud tier, or a
/// transfer between tiers. The simulator's steps are these ids, so hooks
/// carry them as integers and phase_name() is looked up only where text is
/// written (trace spans).
enum class Phase : std::uint8_t {
  kLocal1, kUpRaw, kEdge1, kUpTensor, kEdge2, kEdgeCloud, kCloud3,
  kEdgeReturn, kCloudReturn
};

inline constexpr std::size_t kPhaseCount = 9;

/// "local_block1", "uplink" (both upload phases), "edge_block1",
/// "edge_block2", "edge_cloud_link", "cloud_block3", "return_link",
/// "cloud_return_link".
const char* phase_name(Phase phase);

/// Hook interface. All methods have empty defaults so implementations
/// override only what they record. Times are simulated seconds.
class Observer {
 public:
  virtual ~Observer() = default;

  virtual void on_task_generated(std::uint64_t /*task*/, int /*device*/,
                                 double /*t*/, int /*block*/,
                                 bool /*offloaded*/) {}
  /// A task entered a phase on a resource. `t_queued` is when it was
  /// enqueued; `exec_start` is when the resource actually starts it
  /// (== t_queued for links, max(now, busy_until) for processors).
  virtual void on_phase_begin(std::uint64_t /*task*/, int /*device*/,
                              Phase /*phase*/, std::string_view /*track*/,
                              double /*t_queued*/, double /*exec_start*/,
                              int /*attempt*/) {}
  /// The open phase of `task` finished normally at `t`.
  virtual void on_phase_end(std::uint64_t /*task*/, double /*t*/) {}
  /// The open phase of `task` (if any) was abandoned at `t` — crash
  /// failover, timeout retry. Must tolerate tasks with no open phase.
  virtual void on_phase_abort(std::uint64_t /*task*/, double /*t*/,
                              std::string_view /*outcome*/) {}
  virtual void on_task_complete(std::uint64_t /*task*/, int /*device*/,
                                double /*t_arrive*/, double /*t_complete*/,
                                int /*block*/, int /*retries*/,
                                bool /*counted*/) {}
  /// The task was given up for good and will never complete: its block-2
  /// failover found an edge that never returns, or a step past the raw
  /// upload spent its retry budget.
  virtual void on_task_parked(std::uint64_t /*task*/, int /*device*/,
                              double /*t*/) {}
  /// A controller decision was taken for `device` at slot time `t`.
  virtual void on_slot_decision(int /*device*/, double /*t*/,
                                const SlotTelemetry& /*telemetry*/) {}
  /// A fault-layer event: "edge_crash", "edge_restart", "churn_leave",
  /// "churn_join", "failover", "task_timeout", "local_fallback",
  /// "edge_refused". `device` is -1 for fleet-wide events.
  virtual void on_fault(std::string_view /*kind*/, int /*device*/,
                        double /*t*/) {}
  /// Topology mode only: one fabric hop of a task's flow completed. The
  /// span [t_queued, t_end] sat on the router port with fabric-wide id
  /// `port` (net::Fabric::port(port).name is "dev3_ap0", "ap0_edge0", ...);
  /// exec_start splits it into wait and serialization. Stale-attempt hops
  /// are filtered by the simulator before this fires.
  virtual void on_net_hop(std::uint64_t /*task*/, std::uint32_t /*port*/,
                          double /*t_queued*/, double /*exec_start*/,
                          double /*t_end*/) {}
  /// Topology mode only: the fabric's final state, fired once right before
  /// on_run_end so implementations can export per-port counters and name
  /// the port ids the hop hooks carried.
  virtual void on_net_fabric(const net::Fabric& /*fabric*/, double /*t*/) {}
  /// The drain finished at `t` (last hook of a run).
  virtual void on_run_end(double /*t*/) {}
};

/// What to record and where to write it. All off by default — the default
/// ScenarioConfig keeps the simulator on the zero-overhead path.
struct ObsConfig {
  bool metrics = false;           ///< collect the metrics registry
  std::uint64_t trace_sample = 0; ///< trace 1-in-N tasks (0 = off)
  bool timeseries = false;        ///< collect per-slot samples in memory
  bool attribution = false;       ///< per-task latency waterfalls (§13)
  /// Keep every assembled TaskWaterfall in memory (implied by
  /// attribution_out / calibration_out; set directly by embedders such as
  /// trace_viewer that read the rows through the accessor instead).
  bool keep_waterfalls = false;

  /// Output files, written at the end of the run. A non-empty path
  /// implicitly enables the corresponding pillar (trace_out defaults the
  /// sampler to 1-in-1 when trace_sample is 0).
  std::string metrics_out;     ///< Prometheus text exposition
  std::string metrics_jsonl;   ///< one JSON object per metric
  std::string trace_out;       ///< chrome://tracing JSON
  std::string timeseries_out;  ///< per-slot CSV
  std::string attribution_out; ///< per-task waterfall JSONL
  std::string calibration_out; ///< predicted-vs-actual CSV

  /// Sim-time SLO monitoring ([slo] INI block); enabled by its deadline.
  obs::SloConfig slo;

  /// Decision provenance + oracle regret ([provenance] INI block); enabled
  /// by its sample_n (or implicitly by an output path).
  obs::ProvenanceConfig provenance;

  bool metrics_enabled() const {
    return metrics || !metrics_out.empty() || !metrics_jsonl.empty();
  }
  std::uint64_t effective_trace_sample() const {
    if (trace_sample > 0) return trace_sample;
    return trace_out.empty() ? 0 : 1;
  }
  bool timeseries_enabled() const {
    return timeseries || !timeseries_out.empty();
  }
  bool attribution_enabled() const {
    return attribution || keep_waterfalls || !attribution_out.empty() ||
           !calibration_out.empty();
  }
  bool provenance_enabled() const { return provenance.enabled(); }
  bool enabled() const {
    return metrics_enabled() || effective_trace_sample() > 0 ||
           timeseries_enabled() || attribution_enabled() || slo.enabled() ||
           provenance_enabled();
  }
};

/// The standard observer: metrics + task spans + slot time-series.
///
/// Not thread-safe and bound to a single run: when embedding one externally
/// via ScenarioConfig::observer, use a fresh instance per run and do not
/// share it across parallel runtime cells (each cell builds its own).
class RecordingObserver : public Observer {
 public:
  /// `device_classes` maps each device index to its class name (scenario
  /// [device] `class=` keys); an empty vector puts the whole fleet in
  /// "default". Classes partition the attribution and SLO aggregates.
  RecordingObserver(ObsConfig config, std::size_t num_devices,
                    std::vector<std::string> device_classes = {});

  void on_task_generated(std::uint64_t task, int device, double t, int block,
                         bool offloaded) override;
  void on_phase_begin(std::uint64_t task, int device, Phase phase,
                      std::string_view track, double t_queued,
                      double exec_start, int attempt) override;
  void on_phase_end(std::uint64_t task, double t) override;
  void on_phase_abort(std::uint64_t task, double t,
                      std::string_view outcome) override;
  void on_task_complete(std::uint64_t task, int device, double t_arrive,
                        double t_complete, int block, int retries,
                        bool counted) override;
  void on_task_parked(std::uint64_t task, int device, double t) override;
  void on_slot_decision(int device, double t,
                        const SlotTelemetry& telemetry) override;
  void on_fault(std::string_view kind, int device, double t) override;
  void on_net_hop(std::uint64_t task, std::uint32_t port, double t_queued,
                  double exec_start, double t_end) override;
  void on_net_fabric(const net::Fabric& fabric, double t) override;
  void on_run_end(double t) override;

  const obs::MetricsRegistry& registry() const { return registry_; }
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::TraceBuffer& trace() const { return trace_; }
  const obs::MemoryTimeseriesSink& timeseries() const { return series_; }
  const ObsConfig& config() const { return cfg_; }

  /// Frozen attribution aggregates, classes and ports sorted by name
  /// (inactive struct when attribution is off).
  obs::AttributionSummary attribution_summary() const;
  /// Per-task rows; populated only with keep_waterfalls / output paths.
  const std::vector<obs::TaskWaterfall>& waterfalls() const {
    return waterfalls_;
  }
  /// Sorted unique device-class names; TaskWaterfall::cls indexes this.
  const std::vector<std::string>& class_names() const { return class_names_; }
  /// Fabric port names by id (HopSpan::port indexes this); filled by
  /// on_net_fabric when attribution is on, empty before it and without a
  /// fabric.
  const std::vector<std::string>& port_names() const { return port_names_; }
  /// Frozen SLO stats + alert stream (inactive struct when SLO is off).
  obs::SloSummary slo_summary() const;
  /// The flight recorder, or nullptr when [provenance] is off. Attach it
  /// to a policy::Engine (attach_provenance) to capture exit-setting
  /// decisions alongside the offload decisions this observer records.
  obs::ProvenanceRecorder* provenance() { return prov_.get(); }
  const obs::ProvenanceRecorder* provenance() const { return prov_.get(); }
  /// Frozen provenance stats (inactive struct when [provenance] is off).
  obs::ProvenanceSummary provenance_summary() const;

  /// Writes the configured output files (metrics_out/metrics_jsonl/
  /// trace_out/timeseries_out/attribution_out/calibration_out/alerts_out).
  /// Throws std::runtime_error on write failure.
  void export_outputs() const;

 private:
  struct OpenSpan {
    std::string phase;
    std::string track;
    double t_begin = 0.0;
    int device = -1;
    int attempt = 0;
  };

  void close_span(std::uint64_t task, double t, std::string_view outcome);
  std::size_t class_of(int device) const;

  ObsConfig cfg_;
  bool metrics_on_;
  bool series_on_;
  bool attr_on_;
  bool keep_rows_;
  obs::TaskSampler sampler_;
  obs::MetricsRegistry registry_;

  // Hot-path handles into registry_ (stable references; null when metrics
  // are off). Lookups by name would re-register and must repeat the
  // geometry, so the constructor resolves each instrument once.
  obs::Counter* c_generated_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_offloaded_ = nullptr;
  obs::Counter* c_parked_ = nullptr;
  obs::Counter* c_failovers_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_local_fallbacks_ = nullptr;
  obs::Counter* c_edge_crashes_ = nullptr;
  obs::Counter* c_churn_ = nullptr;
  obs::Counter* c_decisions_ = nullptr;
  obs::Histogram* h_tct_ = nullptr;
  obs::Histogram* h_q_ = nullptr;
  obs::Histogram* h_h_ = nullptr;
  obs::Histogram* h_x_ = nullptr;
  obs::Histogram* h_penalty_ = nullptr;
  obs::Gauge* g_edge_up_ = nullptr;
  obs::Gauge* g_absent_ = nullptr;
  obs::Gauge* g_sim_time_ = nullptr;
  // Attribution instruments (registered only when attribution + metrics
  // are both on, so the disabled metric schema stays byte-identical).
  obs::Counter* c_attr_tasks_ = nullptr;
  obs::Counter* c_attr_incomplete_ = nullptr;
  obs::Counter* c_attr_calibrated_ = nullptr;
  obs::Histogram* h_attr_stall_ = nullptr;
  std::array<obs::Histogram*, obs::kAttrStageCount> h_attr_wait_{};
  std::array<obs::Histogram*, obs::kAttrStageCount> h_attr_service_{};
  std::array<obs::Histogram*, obs::kCalibComponentCount> h_calib_over_{};
  std::array<obs::Histogram*, obs::kCalibComponentCount> h_calib_under_{};
  // SLO instruments (registered only when the [slo] block + metrics are on).
  obs::Counter* c_slo_completions_ = nullptr;
  obs::Counter* c_slo_misses_ = nullptr;
  obs::Counter* c_slo_fired_ = nullptr;
  obs::Counter* c_slo_cleared_ = nullptr;
  obs::Gauge* g_slo_burn_ = nullptr;
  obs::Histogram* h_slo_overshoot_ = nullptr;
  // Provenance instruments (registered only when [provenance] + metrics
  // are on); filled from the recorder totals at run end.
  obs::Counter* c_prov_decisions_ = nullptr;
  obs::Counter* c_prov_sampled_ = nullptr;
  obs::Counter* c_prov_oracle_ = nullptr;
  obs::Counter* c_prov_evictions_ = nullptr;
  obs::Counter* c_prov_dumps_ = nullptr;
  std::array<obs::Histogram*, obs::kDecisionKindCount> h_regret_{};
  obs::TraceBuffer trace_;
  obs::MemoryTimeseriesSink series_;
  std::map<std::uint64_t, OpenSpan> open_;

  /// Arrivals per device since its last slot sample (for eqs. 10-11:
  /// the kept/offloaded split drives the queue recursions).
  std::vector<std::uint64_t> kept_since_slot_;
  std::vector<std::uint64_t> offloaded_since_slot_;

  // Attribution state.
  std::vector<std::string> class_names_;   ///< sorted unique
  std::vector<std::size_t> device_class_;  ///< device -> class index
  std::vector<obs::PredictedComponents> last_pred_;  ///< per device
  std::array<obs::AttrStage, kPhaseCount> phase_stage_{};  ///< by phase id
  std::vector<std::string> port_names_;    ///< by fabric port id
  obs::LatencyLedger ledger_;
  obs::AttributionFold attr_fold_;
  obs::TaskWaterfall done_;  ///< completion scratch; its hops keep capacity
  std::vector<obs::TaskWaterfall> waterfalls_;
  std::unique_ptr<obs::SloMonitor> slo_;
  // Decision provenance (DESIGN.md §14). The dump stream opens lazily on
  // the first SLO fire (so a clean run leaves no file) and is closed +
  // fsynced in on_run_end.
  std::unique_ptr<obs::ProvenanceRecorder> prov_;
  std::ofstream dump_stream_;
  bool dump_opened_ = false;
};

}  // namespace leime::sim
