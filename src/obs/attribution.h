// Latency attribution: per-task wait-vs-service waterfalls (DESIGN.md §13).
//
// The paper's argument is a latency decomposition — TCT splits into local
// compute, wireless transmission and edge queue/compute terms (§III eqs.
// 4-9). The LatencyLedger reconstructs that decomposition from the spans the
// simulator already reports: every `on_phase_begin` carries the
// t_queued/exec_start split, so each stage contributes a *wait* (time queued
// behind other work) and a *service* (time actually being transmitted or
// computed). In topology mode the fabric additionally reports per-port hop
// spans, so a congested uplink attributes its queueing to the specific AP
// port rather than one opaque "uplink" number.
//
// Conservation contract: a task's spans are sequential (the DES never has a
// task occupy two resources at once — the duplex result leg overlaps *other*
// tasks' flows, not its own forward path), so
//
//     sum over stages (wait + service) + stall == t_complete - t_arrive
//
// holds exactly, where `stall` collects the gaps between spans (retry
// backoff, fault-detection timeouts). sim/observer_test enforces it to 1e-9
// for every completed task of a faulty topology run.
//
// This header is sim-free on purpose: everything is plain doubles/strings so
// the ledger can be unit-tested with synthetic spans and the summary can
// ride inside SimResult/RunRecord.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace leime::obs {

/// The waterfall rows, in end-to-end order. kOther catches phases added
/// later without a mapping (they still conserve; they just are not split
/// further).
enum class AttrStage : std::uint8_t {
  kLocalCompute = 0,  ///< block 1 on the device CPU
  kUplink,            ///< raw input / tensor upload (device -> edge)
  kEdgeCompute,       ///< edge blocks 1-2 (wait = the edge queue)
  kCloudLink,         ///< edge -> cloud tensor forward
  kCloudCompute,      ///< block 3 on the cloud
  kResultReturn,      ///< result legs back to the device
  kOther,
};

inline constexpr int kAttrStageCount = 7;

/// Stable lowercase identifier ("local_compute", "uplink", ...). Used in
/// composed metric names, so it stays inside [a-z0-9_].
const char* attr_stage_name(AttrStage stage);

/// Maps a simulator phase name ("local_block1", "uplink", "edge_block2",
/// "cloud_block3", "return_link", ...) onto its stage; kOther for unknown.
AttrStage attr_stage_for_phase(std::string_view phase);

/// True for stages carried by network links — their spans are refined by
/// per-hop fabric reports in topology mode.
bool attr_stage_is_link(AttrStage stage);

/// The latency-bucket geometry shared by all attribution histograms
/// (matches the simulator's TCT histogram: microseconds to ~17 minutes).
HistogramOptions attr_latency_buckets();

/// Eq. 4-9 component latencies predicted at decision time for one device's
/// next task, captured alongside the chosen offload ratio x. Joined with
/// the realized ledger at completion to measure model drift.
struct PredictedComponents {
  double local_wait = 0.0;     ///< Q_i * mu1 / F_d (eq. 5 backlog drain)
  double local_service = 0.0;  ///< mu1 / F_d (eq. 4)
  double uplink = 0.0;         ///< d0/B + L + backlog/B (eq. 7)
  double edge_wait = 0.0;      ///< H_i * mu1 / F_e1 (eq. 9 edge queue)
  double edge_service = 0.0;   ///< mu1 / F_e1 (eq. 8)
  double x = 0.0;              ///< the offload ratio the prediction assumed
  bool valid = false;          ///< a decision has been captured
};

/// Calibration components, in the order they appear in tables/metrics.
enum class CalibComponent : std::uint8_t {
  kLocalWait = 0,
  kLocalService,
  kUplink,
  kEdgeWait,
  kEdgeService,
};

inline constexpr int kCalibComponentCount = 5;

const char* calib_component_name(CalibComponent comp);

/// One stage of a task's waterfall.
struct StageBreakdown {
  double wait = 0.0;     ///< queued behind other work
  double service = 0.0;  ///< actually computing / transmitting
};

/// One fabric hop of a link stage (topology mode only).
struct HopSpan {
  std::string port;  ///< router port name, e.g. "ap0_edge0"
  double wait = 0.0;
  double service = 0.0;
};

/// A completed task's assembled waterfall.
struct TaskWaterfall {
  std::uint64_t task = 0;
  int device = -1;
  std::size_t cls = 0;  ///< device-class index (RecordingObserver's table)
  double t_arrive = 0.0;
  double t_complete = 0.0;
  int block = 0;
  int retries = 0;
  bool offloaded = false;
  bool counted = false;  ///< completed after warmup
  std::array<StageBreakdown, kAttrStageCount> stages{};
  std::vector<HopSpan> hops;  ///< per-port legs, in traversal order
  double stall = 0.0;         ///< e2e minus the sum of recorded spans
  double e2e = 0.0;           ///< t_complete - t_arrive
  PredictedComponents pred;

  /// Signed calibration error (actual - predicted) for one component, or
  /// false when the component does not apply to this task (e.g. edge
  /// components of a task that ran locally) or no prediction was captured.
  /// Only clean first-attempt tasks calibrate (retries == 0, block == 1):
  /// the eq. 4-9 model predicts the first service attempt, not failover.
  bool calibration_error(CalibComponent comp, double* err) const;
};

/// Reassembles waterfalls from the observer's span stream. One entry per
/// in-flight task; entries leave at completion (assembled) or when parked
/// (dropped — a parked task has no end-to-end latency to attribute).
class LatencyLedger {
 public:
  /// Registers a generated task. `pred` is the decision-time prediction for
  /// the task's device (zero/invalid when no decision preceded it).
  void on_generated(std::uint64_t task, int device, std::size_t cls, double t,
                    int block, bool offloaded, const PredictedComponents& pred);

  /// A phase span opened. An already-open span is closed defensively at
  /// `t_queued` first (its elapsed time still counts toward its stage).
  void on_phase_begin(std::uint64_t task, std::string_view phase,
                      double t_queued, double exec_start);

  /// The open span (if any) closed at `t` — normal end or abort. Aborted
  /// attempts still accumulate: the time was really spent.
  void on_phase_end(std::uint64_t task, double t);

  /// A fabric hop of the task's current link span finished. Hops partition
  /// the span exactly (hop k ends where hop k+1 queues), so the stage's
  /// wait/service split is refined from the hop reports when present.
  void on_hop(std::uint64_t task, std::string_view port, double t_queued,
              double exec_start, double t_end);

  /// Drops the entry (terminal-pending). Returns true when it existed.
  bool on_parked(std::uint64_t task);

  /// Assembles and removes the entry into `*out`. Returns false when the
  /// task was never registered. `retries`/`counted` come from the
  /// completion hook (unknown at generation time).
  bool on_complete(std::uint64_t task, double t_complete, int retries,
                   bool counted, TaskWaterfall* out);

  std::size_t open_tasks() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    int device = -1;
    std::size_t cls = 0;
    double t_arrive = 0.0;
    int block = 0;
    bool offloaded = false;
    PredictedComponents pred;
    std::array<StageBreakdown, kAttrStageCount> stages{};
    std::vector<HopSpan> hops;
    // Open-span state.
    bool open = false;
    AttrStage stage = AttrStage::kOther;
    double t_queued = 0.0;
    double exec_start = 0.0;
    double hop_wait = 0.0;  ///< sum of hop waits since the span opened
    bool saw_hops = false;
  };

  void close_open(Entry& e, double t);

  std::map<std::uint64_t, Entry> entries_;
};

/// Per-stage aggregate: totals plus log-bucket wait/service histograms.
struct StageAccum {
  std::uint64_t count = 0;  ///< tasks that touched this stage
  double wait = 0.0;
  double service = 0.0;
  Histogram wait_hist{attr_latency_buckets()};
  Histogram service_hist{attr_latency_buckets()};

  void add(const StageBreakdown& s);
};

/// One run's summary: per-device-class waterfalls, per-port hop totals and
/// per-component calibration errors. Rides on SimResult / RunRecord.
struct AttributionSummary {
  bool active = false;       ///< attribution was enabled for the run
  std::uint64_t tasks = 0;   ///< waterfalls assembled (completed tasks)
  std::uint64_t incomplete = 0;  ///< parked or still open at run end

  struct ClassAccum {
    std::string name;
    std::uint64_t tasks = 0;
    std::array<StageAccum, kAttrStageCount> stages{};
    Histogram e2e{attr_latency_buckets()};
    Histogram stall{attr_latency_buckets()};
  };
  std::vector<ClassAccum> classes;  ///< sorted by class name

  struct PortAccum {
    std::uint64_t spans = 0;
    double wait = 0.0;
    double service = 0.0;
  };
  std::vector<std::pair<std::string, PortAccum>> ports;  ///< sorted by name

  struct CalibrationAccum {
    std::uint64_t count = 0;
    double err_sum = 0.0;      ///< signed: actual - predicted
    double abs_err_sum = 0.0;
    double max_abs_err = 0.0;
  };
  std::array<CalibrationAccum, kCalibComponentCount> calibration{};
  std::uint64_t calibrated_tasks = 0;

  /// Folds one waterfall in, keyed by the class's stable name.
  void add(const TaskWaterfall& wf, const std::string& cls_name);

  /// One JSON object (single line, no trailing newline): deterministic
  /// key order, util::num doubles — the representation sinks embed in
  /// runtime JSONL.
  void to_json(std::ostream& out) const;
};

/// One JSON object per waterfall, one per line ("where did the millisecond
/// go" — consumed by examples/trace_viewer --waterfall).
void write_waterfalls_jsonl(std::ostream& out,
                            const std::vector<TaskWaterfall>& rows,
                            const std::vector<std::string>& class_names);

/// Predicted-vs-actual calibration table, one CSV row per completed task
/// that captured a prediction (header included).
void write_calibration_csv(std::ostream& out,
                           const std::vector<TaskWaterfall>& rows,
                           const std::vector<std::string>& class_names);

}  // namespace leime::obs
