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
// This header is sim-free on purpose: everything is plain doubles, stage
// ids and port ids, so the ledger can be unit-tested with synthetic spans
// and the summary can ride inside SimResult/RunRecord.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
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
/// Observers resolve each phase id's stage once with it, not per span.
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
  std::uint32_t port = 0;  ///< fabric-wide port id (net::Fabric::port)
  double wait = 0.0;
  double service = 0.0;
};

/// The name of port `id` in a names-by-id table (the observer's
/// port_names()); "port<id>" for an id the table does not cover.
std::string port_label(std::uint32_t id,
                       const std::vector<std::string>& port_names);

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
///
/// Flat layout (DESIGN.md §13): entries are fixed-size slots in a pool with
/// a free list, found by an open-addressing index over task ids, and each
/// entry's hops are a list of records in a shared arena whose nodes return
/// to a free list at completion or park. Memory is O(tasks in flight); once
/// the pool, the index and the arena cover the peak, no call allocates.
class LatencyLedger {
 public:
  /// Registers a generated task. `pred` is the decision-time prediction for
  /// the task's device (zero/invalid when no decision preceded it).
  void on_generated(std::uint64_t task, int device, std::size_t cls, double t,
                    int block, bool offloaded, const PredictedComponents& pred);

  /// A span of `stage` opened. An already-open span is closed defensively
  /// at `t_queued` first (its elapsed time still counts toward its stage).
  void on_phase_begin(std::uint64_t task, AttrStage stage, double t_queued,
                      double exec_start);

  /// The open span (if any) closed at `t` — normal end or abort. Aborted
  /// attempts still accumulate: the time was really spent.
  void on_phase_end(std::uint64_t task, double t);

  /// A fabric hop on port id `port` of the task's current link span
  /// finished. Hops partition the span exactly (hop k ends where hop k+1
  /// queues), so the stage's wait/service split is refined from the hop
  /// reports when present.
  void on_hop(std::uint64_t task, std::uint32_t port, double t_queued,
              double exec_start, double t_end);

  /// Drops the entry (terminal-pending). Returns true when it existed.
  bool on_parked(std::uint64_t task);

  /// Assembles and removes the entry into `*out`, whose hop vector is
  /// reused (a caller that passes the same row every time allocates only
  /// while its capacity grows). Returns false when the task was never
  /// registered. `retries`/`counted` come from the completion hook
  /// (unknown at generation time).
  bool on_complete(std::uint64_t task, double t_complete, int retries,
                   bool counted, TaskWaterfall* out);

  std::size_t open_tasks() const { return open_; }
  /// Drops every entry and frees the pool, the index and the arena.
  void clear() { *this = LatencyLedger{}; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Entry {
    // What every span and hop hook touches comes first.
    bool open = false;  ///< a span is open
    AttrStage stage = AttrStage::kOther;
    bool saw_hops = false;
    std::uint32_t first_hop = kNone;  ///< arena list, traversal order
    std::uint32_t last_hop = kNone;
    std::uint32_t next_free = kNone;  ///< pool free-list link
    double t_queued = 0.0;
    double exec_start = 0.0;
    double hop_wait = 0.0;  ///< sum of hop waits since the span opened
    std::array<StageBreakdown, kAttrStageCount> stages{};
    // Read at completion.
    double t_arrive = 0.0;
    std::size_t cls = 0;
    int device = -1;
    int block = 0;
    bool offloaded = false;
    PredictedComponents pred;
  };
  struct HopNode {
    HopSpan hop;
    std::uint32_t next = kNone;  ///< the entry's next hop, or free link
  };
  /// One index position: a task id and its pool slot (kNone = empty). The
  /// id lives here, so probing never touches the pool.
  struct Position {
    std::uint64_t task = 0;
    std::uint32_t slot = kNone;
  };

  Entry* find(std::uint64_t task);
  /// Index position holding `task`, or kNone.
  std::uint32_t position(std::uint64_t task) const;
  std::uint32_t home(std::uint64_t task) const;
  void grow_index();
  /// Returns the entry's hops to the arena and its slot to the pool, and
  /// removes index position `pos`.
  void erase(std::uint32_t pos);
  void close_open(Entry& e, double t);

  std::vector<Entry> pool_;
  std::uint32_t free_entry_ = kNone;
  std::vector<HopNode> hops_;
  std::uint32_t free_hop_ = kNone;
  /// Open addressing with linear probing, at most half full. Erase shifts
  /// back, so there are no tombstones.
  std::vector<Position> index_;
  std::size_t open_ = 0;
};

/// Per-stage aggregate: totals plus log-bucket wait/service histograms.
struct StageAccum {
  std::uint64_t count = 0;  ///< tasks that touched this stage
  double wait = 0.0;
  double service = 0.0;
  Histogram wait_hist{attr_latency_buckets()};
  Histogram service_hist{attr_latency_buckets()};
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

  /// One JSON object (single line, no trailing newline): deterministic
  /// key order, util::num doubles — the representation sinks embed in
  /// runtime JSONL.
  void to_json(std::ostream& out) const;
};

/// What AttributionFold::add computed for one waterfall, for histograms of
/// the attr_latency_buckets() geometry to reuse (Histogram::observe_at):
/// the bucket of each touched stage's wait and service, of the stall and of
/// e2e, and the calibration errors.
struct FoldedWaterfall {
  std::array<std::size_t, kAttrStageCount> wait_bucket{};
  std::array<std::size_t, kAttrStageCount> service_bucket{};
  std::size_t stall_bucket = 0;
  std::size_t e2e_bucket = 0;
  std::uint32_t calibrated = 0;  ///< bit c: component c has an error
  std::array<double, kCalibComponentCount> calib_err{};
};

/// The completion-time fold behind an AttributionSummary, keyed by dense
/// ids instead of names: the class index TaskWaterfall::cls carries and the
/// port id of each hop. add() looks up no name and, once the port table
/// covers every port id, allocates nothing; freeze() resolves the names and
/// sorts. Every accumulator sees the same values in the same order as a
/// fold keyed by name, so the frozen sums are bit-identical to one.
class AttributionFold {
 public:
  AttributionFold() = default;
  /// `classes` = the number of class indices add() will see.
  explicit AttributionFold(std::size_t classes);

  /// Folds one completed waterfall in (wf.cls < classes) and returns the
  /// buckets and calibration errors computed on the way.
  FoldedWaterfall add(const TaskWaterfall& wf);

  /// Counts ledger entries that never completed (parked, open at run end).
  void add_incomplete(std::uint64_t n) { incomplete_ += n; }

  /// An active summary: classes that completed a task and ports that
  /// carried a span, each sorted by name. `class_names` and `port_names`
  /// map the ids (port_label covers ids past the end of `port_names`).
  AttributionSummary freeze(const std::vector<std::string>& class_names,
                            const std::vector<std::string>& port_names) const;

 private:
  std::uint64_t tasks_ = 0;
  std::uint64_t incomplete_ = 0;
  std::uint64_t calibrated_ = 0;
  std::vector<AttributionSummary::ClassAccum> classes_;  ///< by class index
  std::vector<AttributionSummary::PortAccum> ports_;     ///< by port id
  std::array<AttributionSummary::CalibrationAccum, kCalibComponentCount>
      calibration_{};
};

/// One JSON object per waterfall, one per line ("where did the millisecond
/// go" — consumed by examples/trace_viewer --waterfall). Hop ports are
/// written by name (port_label over `port_names`).
void write_waterfalls_jsonl(std::ostream& out,
                            const std::vector<TaskWaterfall>& rows,
                            const std::vector<std::string>& class_names,
                            const std::vector<std::string>& port_names);

/// Predicted-vs-actual calibration table, one CSV row per completed task
/// that captured a prediction (header included).
void write_calibration_csv(std::ostream& out,
                           const std::vector<TaskWaterfall>& rows,
                           const std::vector<std::string>& class_names);

}  // namespace leime::obs
