// Scenario runner — drive the simulator from an INI file, no C++ required.
//
// Usage:
//   scenario_runner <scenario.ini> [--metrics-out <file>] [--trace-out <file>]
//   scenario_runner --template        # print an annotated template
//
// The file describes the model, environment, fleet and policy (format in
// sim/scenario_ini.h); the runner designs the ME-DNN, simulates, and prints
// the fleet summary. See configs/campus.ini for a complete example.
//
// --metrics-out / --trace-out mirror the [observability] metrics_out /
// trace_out keys; a flag overrides the INI value (precedence: CLI > INI)
// and implicitly enables the corresponding pillar. With replications > 1
// the metrics file holds the deterministic plan-order merge of every
// replication's snapshot, while the sim-time trace covers the first
// replication only (one chrome trace per file).
#include <iostream>
#include <stdexcept>
#include <string>

#include "runtime/executor.h"
#include "runtime/experiment_plan.h"
#include "runtime/sinks.h"
#include "sim/scenario_ini.h"
#include "sim/simulation.h"
#include "util/output.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace leime;

constexpr const char* kTemplate = R"([scenario]
model = inception        # vgg16 | resnet34 | inception | squeezenet,
                         # or a path to a leime-profile text file
policy = LEIME           # LEIME | LEIME-balance | D-only | E-only | cap_based,
                         # +fallback suffix = device-only while edge is down
duration = 120           # seconds of task generation
warmup = 5
seed = 42
replications = 1         # >1 reports mean +/- stddev across seeds
reallocation_period = 0  # >0 re-runs the edge KKT allocation every N seconds
shared_uplink_mbps = 0   # >0 puts all devices on one shared WiFi AP
                         # (<0 is an error)
result_bytes = 0         # >0 models result return over the downlink
                         # (<0 is an error)

[edge]
gflops = 50
cloud_tflops = 4
cloud_mbps = 100
cloud_latency_ms = 30

# One [device] section per device.
[device]
gflops = 0.6             # Raspberry Pi class
rate = 1.0               # mean tasks/s (Poisson)
uplink_mbps = 10
uplink_latency_ms = 20
difficulty = 1.0         # >1 harder data (fewer early exits)

[device]
gflops = 6               # Jetson Nano class
rate = 2.0
uplink_mbps = 20
uplink_latency_ms = 15

# Optional: routed device -> AP -> edge -> cloud fabric (net/topology.h,
# DESIGN.md §11). aps = 0 (or no section) keeps the flat per-device links.
[topology]
aps = 0                  # access points; device i joins AP i % aps
ap_mbps = 100            # AP -> edge backhaul
ap_latency_ms = 0        # AP -> edge propagation
device_map =             # e.g. 0,0,1 (device -> AP); empty = i % aps
queue_limit_kb = 0       # per-port queue cap; 0 = unbounded (no drops)

# Optional: the policy core's fast paths (policy/engine.h, DESIGN.md §12).
# Results are identical with them on or off.
[policy]
memo_cache = false       # exit-setting memo cache
warm_start = false       # branch-and-bound seeded by the last incumbent
batch_eq20 = false       # one fleet batch per slot for the eq. 20 rule
cache_capacity = 4096    # memo cache entries (LRU)
quant_per_octave = 4     # memo key buckets per octave

# Optional: one simulation split across event queues (sim/shard.h,
# DESIGN.md §15). Results are byte-identical for any shards and threads.
[shards]
shards = 1               # 1 = single queue
threads = 0              # shard workers; 0 = min(shards, cores)

# Optional: how the experiment runtime executes the replications.
[runtime]
threads = 0              # worker threads; 0 = all cores (results are
                         # identical for any value)
seed_mode = split        # split (independent substreams) | legacy (seed+i)
jsonl =                  # per-run JSONL telemetry file, empty = off
trace =                  # chrome://tracing timeline file, empty = off
progress = false         # live cell counter on stderr

# Optional: fault injection + graceful degradation (sim/faults.h).
# Windows are "start-end" in seconds ("40-" = never heals, edge only);
# link windows may be scoped to one device as "d<idx>:start-end".
[faults]
link_outage_windows =    # e.g. "d0:40-50, 80-90" (unscoped = every device)
link_outage_rate = 0     # Poisson outage onsets per device per second
link_outage_mean_s = 2   # mean outage duration
edge_down_windows =      # e.g. "30-45, 75-90" or "100-" (never restarts)
edge_crash_rate = 0      # Poisson edge crashes per second
edge_downtime_mean_s = 5
churn =                  # e.g. "2:30-60, 1:80-" (device:leave-rejoin)
detection_timeout_s = 0.5
task_timeout_s = 0       # >0 arms the per-task retry watchdog
max_retries = 2
retry_backoff_s = 0.25
probe_period_s = 1

# Optional: in-simulation observability (sim/observer.h). Omit the section
# (all off) to keep the simulator on its zero-overhead path.
[observability]
metrics = false          # collect the leime_* metrics registry
trace_sample = 0         # trace 1-in-N tasks (0 = off; 1 = every task)
timeseries = false       # per-slot Q/H/x/drift/penalty samples
metrics_out =            # Prometheus text file (implies metrics = true)
metrics_jsonl =          # one JSON object per metric
trace_out =              # sim-time chrome://tracing file (implies 1-in-1)
timeseries_out =         # per-slot CSV
attribution = false      # per-task latency waterfalls (DESIGN.md §13)
attribution_out =        # waterfall JSONL (for trace_viewer --waterfall)
calibration_out =        # eq. 4-9 predicted-vs-actual CSV

# Optional: sim-time SLO burn-rate alerting (obs/slo.h); enabled by the
# deadline. Alerts surface as metrics, trace marks and the JSONL below.
[slo]
deadline_ms = 0          # >0 arms the monitor; <0 is an error. The other keys
                         # are checked even while it is 0
window_s = 30
target_miss_rate = 0.01
burn_threshold = 1
min_window_tasks = 20
alerts_out =             # fire/clear transitions, one JSON object each

# Optional: decision provenance + oracle regret (obs/provenance.h,
# DESIGN.md §14). Enabled by sample_n (an output path or oracle_sample_n
# implies 1-in-1).
[provenance]
sample_n = 0             # record 1-in-N policy decisions (0 = off)
ring_capacity = 256      # flight-recorder depth (last-N records)
oracle_sample_n = 0      # re-run the exhaustive oracle 1-in-N (regret)
decisions_out =          # run-end window JSONL (trace_viewer --decisions)
dump_out =               # SLO-fire postmortem JSONL
)";

void report_obs_outputs(const sim::ObsConfig& obs) {
  if (!obs.metrics_out.empty())
    std::cout << "(metrics: " << obs.metrics_out << ")\n";
  if (!obs.metrics_jsonl.empty())
    std::cout << "(metrics jsonl: " << obs.metrics_jsonl << ")\n";
  if (!obs.trace_out.empty())
    std::cout << "(sim trace: " << obs.trace_out << ")\n";
  if (!obs.timeseries_out.empty())
    std::cout << "(timeseries: " << obs.timeseries_out << ")\n";
  if (!obs.attribution_out.empty())
    std::cout << "(attribution waterfalls: " << obs.attribution_out << ")\n";
  if (!obs.calibration_out.empty())
    std::cout << "(calibration: " << obs.calibration_out << ")\n";
  if (!obs.slo.alerts_out.empty())
    std::cout << "(slo alerts: " << obs.slo.alerts_out << ")\n";
  if (!obs.provenance.decisions_out.empty())
    std::cout << "(decision provenance: " << obs.provenance.decisions_out
              << ")\n";
  if (!obs.provenance.dump_out.empty())
    std::cout << "(flight-recorder dumps: " << obs.provenance.dump_out
              << ")\n";
}

int run(const std::string& path, const std::string& metrics_out,
        const std::string& trace_out, const std::string& decisions_out,
        const std::string& dump_out) {
  auto scenario = sim::load_scenario_file(path);
  // CLI flags override the [observability] keys (CLI > INI).
  sim::apply_obs_overrides(scenario.config.obs, metrics_out, trace_out);
  // Same precedence for the [provenance] paths: a flag replaces the INI
  // value and implicitly enables the pillar (effective_sample_n).
  if (!decisions_out.empty())
    scenario.config.obs.provenance.decisions_out = decisions_out;
  if (!dump_out.empty()) scenario.config.obs.provenance.dump_out = dump_out;
  std::cout << "designed exits for " << scenario.profile.name() << ": ("
            << scenario.designed_exits.e1 << ", " << scenario.designed_exits.e2
            << ", " << scenario.designed_exits.e3
            << "), expected per-task TCT "
            << util::fmt(scenario.expected_tct, 3) << " s\n\n";

  if (scenario.replications > 1) {
    // Replications run as an axis-free plan on the runtime executor, with
    // per-run seeds derived from [scenario] seed (or the legacy base+i
    // convention when [runtime] seed_mode = legacy).
    runtime::ExperimentPlan plan(scenario.config);
    plan.replications(scenario.replications)
        .base_seed(scenario.config.seed)
        .seed_mode(scenario.legacy_seeds
                       ? runtime::SeedMode::kLegacyArithmetic
                       : runtime::SeedMode::kSplit);
    runtime::ExecutorOptions exec_opts;
    exec_opts.threads = scenario.threads;
    exec_opts.progress = scenario.progress;
    runtime::Executor executor(exec_opts);

    // Per-cell output files would collide across replications, so the
    // runner aggregates instead: every cell keeps its pillars on but loses
    // its file paths. The metrics snapshots merge in plan order into the
    // files below; each record carries its own attribution, SLO and
    // provenance summary into the JSONL. The sim-time trace, time-series,
    // waterfall/calibration files, alerts and provenance JSONL go to the
    // first replication only.
    const sim::ObsConfig obs = scenario.config.obs;
    auto cells = plan.expand();
    for (auto& cell : cells) {
      cell.config.obs.metrics = obs.metrics_enabled();
      cell.config.obs.trace_sample = obs.effective_trace_sample();
      cell.config.obs.timeseries = obs.timeseries_enabled();
      cell.config.obs.attribution = obs.attribution_enabled();
      cell.config.obs.metrics_out.clear();
      cell.config.obs.metrics_jsonl.clear();
      cell.config.obs.trace_out.clear();
      cell.config.obs.timeseries_out.clear();
      cell.config.obs.attribution_out.clear();
      cell.config.obs.calibration_out.clear();
      cell.config.obs.slo.alerts_out.clear();
      // An output-path-only [provenance] must stay enabled in every cell
      // (each record carries its own summary), so pin the resolved rate
      // before dropping the file paths.
      cell.config.obs.provenance.sample_n = obs.provenance.effective_sample_n();
      cell.config.obs.provenance.decisions_out.clear();
      cell.config.obs.provenance.dump_out.clear();
    }
    if (!cells.empty()) {
      cells[0].config.obs.trace_out = obs.trace_out;
      cells[0].config.obs.timeseries_out = obs.timeseries_out;
      cells[0].config.obs.attribution_out = obs.attribution_out;
      cells[0].config.obs.calibration_out = obs.calibration_out;
      cells[0].config.obs.slo.alerts_out = obs.slo.alerts_out;
      cells[0].config.obs.provenance.decisions_out =
          obs.provenance.decisions_out;
      cells[0].config.obs.provenance.dump_out = obs.provenance.dump_out;
    }
    const auto records = executor.run(std::move(cells));

    util::RunningStats means, p95s;
    for (const auto& rec : records) {
      means.add(rec.result.tct.mean);
      p95s.add(rec.result.tct.p95);
    }
    std::cout << "over " << records.size() << " replications ("
              << runtime::Executor::resolve_threads(scenario.threads)
              << " thread(s), " << util::fmt(executor.last_wall_s(), 2)
              << " s wall): mean TCT " << util::fmt(means.mean(), 3)
              << " s (stddev " << util::fmt(means.stddev(), 3)
              << "), mean p95 " << util::fmt(p95s.mean(), 3) << " s\n";

    const auto axis_names = plan.axis_names();
    if (!scenario.jsonl_path.empty()) {
      runtime::write_jsonl_file(scenario.jsonl_path, axis_names, records);
      std::cout << "(jsonl telemetry: " << scenario.jsonl_path << ")\n";
    }
    if (!scenario.trace_path.empty()) {
      runtime::write_chrome_trace(scenario.trace_path, records);
      std::cout << "(chrome trace: " << scenario.trace_path << ")\n";
    }
    if (!obs.metrics_out.empty()) {
      runtime::write_metrics_prometheus(obs.metrics_out, records);
      std::cout << "(metrics, merged over " << records.size()
                << " replications: " << obs.metrics_out << ")\n";
    }
    if (!obs.metrics_jsonl.empty()) {
      const auto merged = runtime::merged_metrics(records);
      util::write_file(obs.metrics_jsonl, "metrics",
                       [&](std::ostream& out) { merged.to_jsonl(out); });
      std::cout << "(metrics jsonl, merged: " << obs.metrics_jsonl << ")\n";
    }
    if (!obs.trace_out.empty())
      std::cout << "(sim trace, first replication: " << obs.trace_out
                << ")\n";
    if (!obs.timeseries_out.empty())
      std::cout << "(timeseries, first replication: " << obs.timeseries_out
                << ")\n";
    if (!obs.attribution_out.empty())
      std::cout << "(attribution waterfalls, first replication: "
                << obs.attribution_out << ")\n";
    if (!obs.calibration_out.empty())
      std::cout << "(calibration, first replication: " << obs.calibration_out
                << ")\n";
    if (!obs.slo.alerts_out.empty())
      std::cout << "(slo alerts, first replication: " << obs.slo.alerts_out
                << ")\n";
    if (!obs.provenance.decisions_out.empty())
      std::cout << "(decision provenance, first replication: "
                << obs.provenance.decisions_out << ")\n";
    if (!obs.provenance.dump_out.empty())
      std::cout << "(flight-recorder dumps, first replication: "
                << obs.provenance.dump_out << ")\n";
    return 0;
  }

  const auto result = sim::run_scenario(scenario.config);
  report_obs_outputs(scenario.config.obs);
  std::cout << "fleet: " << result.generated << " tasks, mean TCT "
            << util::fmt(result.tct.mean, 3) << " s (p50 "
            << util::fmt(result.tct.p50, 3) << ", p95 "
            << util::fmt(result.tct.p95, 3) << ")\n"
            << "exits: " << util::fmt(100 * result.exit1_fraction, 0)
            << "% device / " << util::fmt(100 * result.exit2_fraction, 0)
            << "% edge / " << util::fmt(100 * result.exit3_fraction, 0)
            << "% cloud; mean offload ratio "
            << util::fmt(result.mean_offload_ratio, 2) << "\n\n";

  util::TablePrinter t({"device", "completed", "mean TCT (s)", "p95 (s)",
                        "mean x"});
  for (std::size_t i = 0; i < result.per_device.size(); ++i) {
    const auto& d = result.per_device[i];
    t.add_row({std::to_string(i), std::to_string(d.completed),
               util::fmt(d.tct.mean, 3), util::fmt(d.tct.p95, 3),
               util::fmt(d.mean_offload_ratio, 2)});
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string ini_path, metrics_out, trace_out, decisions_out, dump_out;
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--template") {
        std::cout << kTemplate;
        return 0;
      }
      auto flag_value = [&](const std::string& flag,
                            std::string* value) -> bool {
        if (arg == flag) {
          if (a + 1 >= argc)
            throw std::invalid_argument(flag + " needs a file argument");
          *value = argv[++a];
          return true;
        }
        if (arg.rfind(flag + "=", 0) == 0) {
          *value = arg.substr(flag.size() + 1);
          return true;
        }
        return false;
      };
      if (flag_value("--metrics-out", &metrics_out)) continue;
      if (flag_value("--trace-out", &trace_out)) continue;
      if (flag_value("--decisions-out", &decisions_out)) continue;
      if (flag_value("--dump-out", &dump_out)) continue;
      if (!arg.empty() && arg[0] == '-')
        throw std::invalid_argument("unknown flag " + arg);
      if (!ini_path.empty())
        throw std::invalid_argument("more than one scenario file given");
      ini_path = arg;
    }
    if (ini_path.empty()) {
      std::cerr << "usage: scenario_runner <scenario.ini> "
                   "[--metrics-out <file>] [--trace-out <file>] "
                   "[--decisions-out <file>] [--dump-out <file>] | "
                   "--template\n";
      return 2;
    }
    return run(ini_path, metrics_out, trace_out, decisions_out, dump_out);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
