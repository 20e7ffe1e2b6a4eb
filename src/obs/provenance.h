// Decision provenance: per-decision audit records, oracle-regret accounting
// and a bounded flight recorder (DESIGN.md §14).
//
// PR 7's fast paths (memo cache, warm-started B&B, batched eq. 20) are
// proven result-identical to the reference searches, and PR 8 shows where
// each millisecond went — but neither says *why* the policy decided what it
// did, or how far a per-slot heuristic (the eq. 20 balance rule) lands from
// the exact drift-plus-penalty minimiser. This header holds the sim-free
// pieces: one DecisionRecord per sampled exit-setting / offload evaluation
// (environment snapshot, fast path taken, work explored vs pruned, chosen
// action with its predicted cost, runner-up margin), a mutex-guarded
// recorder that keeps the last `ring_capacity` records — the flight
// recorder an SLO fire dumps — and a run summary with per-class log-bucket
// regret histograms that rides SimResult/RunRecord.
//
// Regret semantics: regret = chosen cost − oracle cost on the *decision
// objective* (expected TCT for exit settings, eq. 19 drift-plus-penalty for
// offload ratios), with the oracle cost clamped to min(oracle, chosen) so
// regret ≥ 0 holds by construction even under floating-point re-association.
// Exit-setting fast paths are bit-identical to the exhaustive scan by the
// §12 contracts, so their regret is exactly 0 — the accounting is an online
// watchdog for that proof; offload regret is genuinely nonzero whenever the
// paper's decentralized balance rule (eq. 20) is driving.
//
// Everything here is plain ints/doubles/strings on purpose (no core::
// types): the recorder can be unit-tested synthetically and the summary can
// ride inside the runtime without dragging the cost model along. The
// core-facing emission sites live in policy/engine.cpp (exit settings) and
// sim/observer.cpp (offload slots).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace leime::obs {

/// The `[provenance]` INI section. All off by default — the golden
/// byte-identical configuration.
struct ProvenanceConfig {
  /// Record 1-in-N decisions (the trace-buffer trick: deterministic in the
  /// decision ordinal, not in wall time or thread schedule). 0 = disabled.
  std::uint64_t sample_n = 0;
  /// Flight-recorder depth: how many of the latest sampled records an SLO
  /// fire dumps (and decisions_out exports at run end).
  std::size_t ring_capacity = 256;
  /// Re-run the exhaustive oracle on sampled decisions whose ordinal is
  /// also divisible by this, accounting regret = chosen − oracle. 0 = off.
  std::uint64_t oracle_sample_n = 0;
  std::string decisions_out;  ///< run-end JSONL of the recorder window
  std::string dump_out;       ///< SLO-fire postmortem JSONL

  /// A non-empty output path (or an oracle request) implies 1-in-1
  /// sampling when sample_n was left 0, mirroring ObsConfig::trace_out.
  std::uint64_t effective_sample_n() const {
    if (sample_n > 0) return sample_n;
    const bool wanted =
        !decisions_out.empty() || !dump_out.empty() || oracle_sample_n > 0;
    return wanted ? 1 : 0;
  }
  bool enabled() const { return effective_sample_n() > 0; }

  /// Throws std::invalid_argument on a zero ring capacity.
  void validate() const;
};

/// What kind of decision a record describes.
enum class DecisionKind : std::uint8_t {
  kExitSetting = 0,  ///< §III-C exit-setting search (design/epoch time)
  kOffload,          ///< §III-D per-slot offload ratio
};
inline constexpr int kDecisionKindCount = 2;

/// Which implementation served the decision.
enum class DecisionPath : std::uint8_t {
  kCold = 0,   ///< reference B&B search
  kMemoHit,    ///< exit-setting memo cache replay
  kWarmStart,  ///< B&B seeded from the stream's incumbent
  kDirect,     ///< per-slot policy evaluated directly
  kBatch,      ///< offload ratio reused from a bit-identical fleet state
};
inline constexpr int kDecisionPathCount = 5;

/// Stable lowercase identifiers ("exit_setting", "memo_hit", ...); both
/// stay inside [a-z0-9_] so they can appear in composed names and JSON.
const char* decision_kind_name(DecisionKind kind);
const char* decision_path_name(DecisionPath path);

/// Log-bucket geometry shared by every regret histogram: a nanosecond of
/// regret up to ~17 minutes, matching the latency buckets' dynamic range.
HistogramOptions regret_buckets();

/// One sampled decision, fully self-describing.
struct DecisionRecord {
  std::uint64_t seq = 0;  ///< recorder-assigned decision ordinal
  double t = -1.0;        ///< sim time; -1 for design-time decisions
  int device = -1;        ///< deciding device; -1 for fleet/design scope
  std::string cls;        ///< device class ("engine" for design-time)
  DecisionKind kind = DecisionKind::kExitSetting;
  DecisionPath path = DecisionPath::kCold;

  // Environment snapshot at decision time.
  double bandwidth = 0.0;     ///< B (device-edge bytes/s)
  double edge_flops = 0.0;    ///< F^e (total or this device's share)
  double queue_device = 0.0;  ///< Q_i(t), tasks (0 at design time)
  double queue_edge = 0.0;    ///< H_i(t), tasks (0 at design time)

  // The chosen action: an exit combo (kExitSetting) or a ratio (kOffload).
  int e1 = 0;
  int e2 = 0;
  int e3 = 0;
  double x = 0.0;
  double cost = 0.0;  ///< predicted objective at the chosen action

  std::uint64_t explored = 0;  ///< candidate evaluations actually run
  std::uint64_t pruned = 0;    ///< scans skipped by the fast path
  bool margin_valid = false;   ///< a runner-up existed and was measured
  double margin = 0.0;         ///< runner-up cost − chosen cost (≥ 0)

  bool oracle = false;       ///< the exhaustive oracle re-ran this decision
  double oracle_cost = 0.0;  ///< min(oracle optimum, chosen) when oracle
  double regret = 0.0;       ///< cost − oracle_cost (≥ 0) when oracle
};

/// One run's provenance summary, riding SimResult/RunRecord.
struct ProvenanceSummary {
  bool active = false;
  std::uint64_t decisions = 0;       ///< every decision seen (incl. unsampled)
  std::uint64_t sampled = 0;         ///< records created
  std::uint64_t oracle_runs = 0;     ///< records the oracle re-ran
  std::uint64_t ring_evictions = 0;  ///< records aged out of the window
  std::uint64_t dumps = 0;           ///< SLO-fire flight-recorder dumps
  std::array<std::uint64_t, kDecisionKindCount> kinds{};
  std::array<std::uint64_t, kDecisionPathCount> paths{};
  /// Regret distribution per decision kind (oracle-sampled records only);
  /// feeds the leime_regret_* registry histograms at run end.
  std::array<Histogram, kDecisionKindCount> kind_regret{
      Histogram{regret_buckets()}, Histogram{regret_buckets()}};

  struct ClassAccum {
    std::string name;
    std::uint64_t sampled = 0;
    std::uint64_t oracle_runs = 0;
    double regret_sum = 0.0;
    double max_regret = 0.0;
    Histogram regret{regret_buckets()};
  };
  std::vector<ClassAccum> classes;  ///< sorted by class name

  /// One JSON object (single line, no trailing newline): deterministic key
  /// order, util::num doubles.
  void to_json(std::ostream& out) const;
};

/// An observer span still open when the flight recorder dumped — the work
/// in flight at the moment the SLO burned.
struct OpenSpanNote {
  std::uint64_t task = 0;
  int device = -1;
  std::string phase;
  std::string track;
  double t_begin = 0.0;
};

/// The bounded flight recorder. Thread-safe: policy::Engine may emit
/// exit-setting records from many threads while the owning observer emits
/// offload records; all state sits behind one mutex, and the record stream
/// is deterministic for a deterministic decision order (per-cell recorders
/// keep runtime JSONL thread-count-invariant).
class ProvenanceRecorder {
 public:
  /// Validates the config (ProvenanceConfig::validate).
  explicit ProvenanceRecorder(ProvenanceConfig config);

  const ProvenanceConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled(); }

  /// Claims the next decision ordinal. Returns true iff the decision is
  /// sampled (ordinal divisible by sample_n); `*seq` receives the ordinal
  /// and, when sampled, `*oracle` (if given) whether the exhaustive oracle
  /// must be re-run for it. Unsampled decisions are still counted.
  bool begin_decision(std::uint64_t* seq, bool* oracle = nullptr);

  /// Accounts a sampled record into the summary and the ring (evicting the
  /// oldest when full).
  void record(DecisionRecord rec);

  /// Counts one flight-recorder dump (the observer writes the bytes).
  void note_dump();

  /// Snapshot of the ring, oldest first.
  std::vector<DecisionRecord> window() const;

  ProvenanceSummary summary() const;

 private:
  ProvenanceConfig cfg_;
  std::uint64_t sample_n_ = 0;  ///< effective_sample_n(), resolved once
  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;
  std::deque<DecisionRecord> ring_;
  ProvenanceSummary sum_;
};

/// One JSON object per record, one per line (consumed by
/// examples/trace_viewer --decisions).
void write_decisions_jsonl(std::ostream& out,
                           const std::vector<DecisionRecord>& records);

/// One postmortem: an "alert" header line, the flight-recorder window and
/// the spans still open — appended to an already-open dump stream so
/// successive fires land in fire order.
void write_flight_dump(std::ostream& out, double t, const std::string& cls,
                       double miss_rate, double burn,
                       std::uint64_t window_tasks,
                       const std::vector<DecisionRecord>& window,
                       const std::vector<OpenSpanNote>& open_spans);

}  // namespace leime::obs
