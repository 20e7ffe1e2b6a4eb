// Shared declarations of the end-to-end benchmark (see README.md).
//
// One repetition drives the public API exactly as a user of the simulator
// would: INI text -> util::IniFile::parse_string -> sim::load_scenario ->
// sim::run_scenario or runtime::ExperimentPlan + runtime::Executor ->
// runtime::write_jsonl_file. Everything here is host time unless a name
// says "simulated".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prof/profiler.h"
#include "runtime/experiment_plan.h"
#include "runtime/run_record.h"
#include "sim/scenario_ini.h"

namespace e2e {

/// Full measurement size, or the ~1/50 smoke size run.sh --smoke uses.
enum class Scale { kFull, kSmoke };

const char* scale_name(Scale scale);

/// One workload instance: the generated INI plus how it is executed.
struct Workload {
  std::string name;
  std::string ini;     ///< generated from the workload seed
  bool sweep = false;  ///< plan over runtime::Executor (campus_sweep)
};

/// Generates workload `name` for `seed`. `observability = false` drops the
/// [observability], [slo] and [provenance] sections (the wild_1k obs-off
/// reference run). Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       Scale scale, bool observability = true);

/// The campus_sweep grid over the loaded base scenario: policy x rate
/// scale x fleet size x the INI's replications.
leime::runtime::ExperimentPlan sweep_plan(
    const leime::sim::IniScenario& scenario);

// ------------------------------------------------------------ verification

/// 64-bit FNV-1a over the record's timing-free JSONL line, the run-level
/// values that line omits (mean queues, TCT timeline) and the per-device
/// summaries, every double written as a hex float.
std::uint64_t op_digest(const std::vector<std::string>& axis_names,
                        const leime::runtime::RunRecord& record);

/// Empty when the result satisfies the benchmark's invariants: task
/// conservation, exit fractions summing to 1 within 1e-12, every double
/// finite, and (`require_drained`) no task still in flight.
std::string invariant_error(const leime::sim::SimResult& result,
                            bool require_drained);

/// Stored per-operation digests, one hex value per line, or an empty
/// vector when the file does not exist.
std::vector<std::uint64_t> read_digests(const std::string& path);
void write_digests(const std::string& path,
                   const std::vector<std::uint64_t>& digests);

// ------------------------------------------------------------------ layers

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v);

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  std::string workload;
  const leime::prof::Report* report = nullptr;
  double traced_total_s = 0.0;       ///< total_s of the traced repetition
  double untraced_total_s = 0.0;     ///< median total_s with tracing off
  double untraced_run_s = 0.0;       ///< median run_s with tracing off
  std::size_t ini_bytes = 0;
  /// Deterministic counts, summed over the operations of one untraced
  /// repetition.
  std::vector<leime::runtime::RunRecord> records;
  double executor_busy_frac = 0.0;   ///< 0 off the executor path
  double unsharded_run_s = 0.0;      ///< fleet_100k_sharded only
  double obs_off_run_s = 0.0;        ///< wild_1k only
};

/// The per-layer metrics in BENCHMARK.json order (0 where a layer is not
/// on the workload's path).
std::vector<Metric> layer_metrics(const LayerInputs& in);

/// Writes `<workload>.layers.json`: per-section count, total, self time
/// and share of the traced total_s.
void write_layers_json(const std::string& path, const LayerInputs& in);

}  // namespace e2e
