// Golden determinism regression: a fixed-seed experiment plan (faults off
// and on) rendered through the JSONL sink must reproduce the committed
// snapshot byte for byte, at any executor thread count. Catches silent
// drift in the simulator's event ordering, the fault layer's RNG usage and
// the sink's number formatting alike.
//
// To refresh the snapshot after an intentional behaviour change:
//   LEIME_REGEN_GOLDEN=1 ./build/tests/runtime_test
// (optionally with --gtest_filter='Golden.*') and commit the new file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "runtime/experiment_plan.h"
#include "runtime/sinks.h"
#include "sim/simulation.h"

#ifndef LEIME_GOLDEN_DIR
#define LEIME_GOLDEN_DIR "tests/golden"
#endif

namespace leime::runtime {
namespace {

sim::ScenarioConfig golden_base() {
  // Hand-picked exit combo (no branch-and-bound in the loop): the snapshot
  // should only depend on the simulator and the sink.
  const auto profile = models::make_squeezenet();
  sim::ScenarioConfig cfg;
  cfg.partition = core::make_partition(profile, {4, 8, profile.num_units()});
  sim::DeviceSpec pi;
  pi.flops = core::kRaspberryPiFlops;
  pi.mean_rate = 0.6;
  sim::DeviceSpec nano;
  nano.flops = core::kJetsonNanoFlops;
  nano.mean_rate = 0.9;
  nano.uplink_bw = util::mbps(20.0);
  nano.uplink_lat = util::ms(15.0);
  cfg.devices = {pi, nano};
  cfg.policy = "LEIME+fallback";
  cfg.duration = 25.0;
  cfg.warmup = 2.0;
  return cfg;
}

ExperimentPlan golden_plan(const sim::ScenarioConfig& base) {
  ExperimentPlan plan(base);
  plan.add_axis(
      "injection",
      {{"off", [](sim::ScenarioConfig&) {}},
       {"on", [](sim::ScenarioConfig& cfg) {
          cfg.faults.edge.windows = {{8.0, 14.0}};
          cfg.faults.link.windows = {{5.0, 9.0, /*device=*/0}};
          cfg.faults.edge.rate = 0.01;
          cfg.faults.churn.events = {{1, 12.0, 18.0}};
          cfg.faults.degradation.detection_timeout = 0.5;
          cfg.faults.degradation.task_timeout = 3.0;
          cfg.faults.degradation.probe_period = 0.5;
        }}});
  plan.replications(2).base_seed(20240131);
  return plan;
}

std::string render(int threads, const sim::ScenarioConfig& base) {
  ExecutorOptions opts;
  opts.threads = threads;
  const auto records = Executor(opts).run(golden_plan(base));
  JsonlOptions jopts;
  jopts.include_timing = false;
  std::ostringstream out;
  write_jsonl(out, {"injection"}, records, jopts);
  return out.str();
}

std::string render(int threads) { return render(threads, golden_base()); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Compares `actual` with the committed snapshot `name`, or rewrites the
/// snapshot (and skips) when LEIME_REGEN_GOLDEN is set.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(LEIME_GOLDEN_DIR) + "/" + name;
  if (std::getenv("LEIME_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "could not write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << path
      << " (run once with LEIME_REGEN_GOLDEN=1 to create it)";
  EXPECT_EQ(actual, read_file(path))
      << name << " drifted from the committed snapshot; if the change is "
      << "intentional, rerun with LEIME_REGEN_GOLDEN=1 and commit the new "
      << "file";
}

TEST(Golden, JsonlSnapshotIsByteStableAtAnyThreadCount) {
  const auto serial = render(1);
  EXPECT_EQ(serial, render(3))
      << "executor thread count changed the collected bytes";
  expect_golden("runtime_faults.jsonl", serial);
}

TEST(Golden, PolicyFastPathsAreObservationallyInvisible) {
  // The [policy] fast paths are proven result-identical (src/policy, the
  // policy_diff suite); this pins the end-to-end consequence: enabling
  // every knob leaves the rendered JSONL byte-identical to default-off —
  // including under the fault axis's churn — at any thread count.
  sim::ScenarioConfig policy_on = golden_base();
  policy_on.policy_core.memo_cache = true;
  policy_on.policy_core.warm_start = true;
  policy_on.policy_core.batch_eq20 = true;
  const auto fast = render(1, policy_on);
  EXPECT_EQ(fast, render(1))
      << "[policy] fast paths changed the simulator's bytes";
  EXPECT_EQ(fast, render(3, policy_on))
      << "policy-on rendering depends on the executor thread count";
}

// Sharded execution (DESIGN.md §15) is an execution-strategy choice, not
// a model change: partitioning the fleet across event queues must render
// the exact single-queue bytes through the full plan/executor/sink path —
// fault axis included — for every shard x thread combination. This is the
// golden half of the determinism contract (tests/sim/sharded_test.cpp
// pins the SimResult fields; this pins the serialized output).
TEST(Golden, ShardedExecutionRendersIdenticalBytes) {
  const auto serial = render(1);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    for (const int threads : {1, 4}) {
      sim::ScenarioConfig cfg = golden_base();
      cfg.shards.shards = shards;
      cfg.shards.threads = threads;
      EXPECT_EQ(serial, render(1, cfg))
          << "shards=" << shards << " threads=" << threads
          << " drifted from the single-queue bytes";
    }
  }
  // Shard workers nested inside executor workers: same bytes again.
  sim::ScenarioConfig nested = golden_base();
  nested.shards.shards = 2;
  nested.shards.threads = 2;
  EXPECT_EQ(serial, render(3, nested))
      << "sharding nested under executor threads changed the bytes";
}

// Attribution + SLO ride the same plan-order merge as the metrics
// snapshot, so their JSONL blocks must be byte-identical at any executor
// thread count — and absent entirely when the pillars are off (the golden
// snapshot above pins the disabled bytes).
TEST(Golden, AttributionAndSloBlocksAreThreadCountInvariant) {
  sim::ScenarioConfig obs_on = golden_base();
  obs_on.obs.attribution = true;
  obs_on.obs.slo.deadline = 0.5;
  obs_on.obs.slo.min_window_tasks = 5;
  const auto serial = render(1, obs_on);
  EXPECT_NE(serial.find("\"attribution\":{\"tasks\":"), std::string::npos);
  EXPECT_NE(serial.find("\"slo\":{\"deadline\":"), std::string::npos);
  EXPECT_EQ(serial, render(3, obs_on))
      << "attribution/SLO JSONL depends on the executor thread count";
  // And the pillars never leak into a disabled run's bytes.
  const auto off = render(1);
  EXPECT_EQ(off.find("\"attribution\""), std::string::npos);
  EXPECT_EQ(off.find("\"slo\""), std::string::npos);
}

// The network modes beside the flat-link default: the shared AP, result
// downlinks with a FIFO cloud, and the routed fabric (with drops, AP
// outages and result routing), each with faults off and on. Metrics and
// attribution ride every cell, so the observer's phase timestamps and the
// fabric's per-port hop totals are pinned along with the task results.
ExperimentPlan network_plan() {
  sim::ScenarioConfig base = golden_base();
  base.devices = {base.devices[0], base.devices[1], base.devices[0],
                  base.devices[1]};
  base.obs.metrics = true;
  base.obs.attribution = true;
  base.duration = 40.0;
  auto fabric = [](sim::ScenarioConfig& cfg) {
    cfg.topology.aps = 2;
    cfg.topology.ap_bandwidth = util::mbps(8.0);
    cfg.topology.ap_latency = util::ms(4.0);
    cfg.topology.queue_limit_bytes = 1.5e6;
  };
  auto results = [](sim::ScenarioConfig& cfg) {
    cfg.result_bytes = 2e3;
    cfg.cloud_fifo = true;
  };
  ExperimentPlan plan(base);
  plan.add_axis(
      "network",
      {{"shared_ap",
        [](sim::ScenarioConfig& cfg) { cfg.shared_uplink_bw = util::mbps(12); }},
       {"flat_results", results},
       {"topology", fabric},
       {"topology_results", [=](sim::ScenarioConfig& cfg) {
          fabric(cfg);
          results(cfg);
        }}});
  plan.add_axis(
      "injection",
      {{"off", [](sim::ScenarioConfig&) {}},
       {"on", [](sim::ScenarioConfig& cfg) {
          cfg.faults.edge.windows = {{8.0, 14.0}};
          cfg.faults.link.windows = {{5.0, 9.0, /*device=*/0}};
          if (cfg.topology.enabled())
            cfg.faults.ap_windows = {{16.0, 18.0, /*device=*/1}};
          cfg.faults.churn.events = {{1, 12.0, 18.0}};
          cfg.faults.degradation.detection_timeout = 0.5;
          cfg.faults.degradation.task_timeout = 3.0;
          cfg.faults.degradation.probe_period = 0.5;
          cfg.faults.degradation.max_retries = 2;
        }}});
  plan.base_seed(20240131);
  return plan;
}

std::string render_network(int threads) {
  ExecutorOptions opts;
  opts.threads = threads;
  const auto records = Executor(opts).run(network_plan());
  JsonlOptions jopts;
  jopts.include_timing = false;
  std::ostringstream out;
  write_jsonl(out, {"network", "injection"}, records, jopts);
  return out.str();
}

TEST(Golden, NetworkModesSnapshotIsByteStableAtAnyThreadCount) {
  const auto serial = render_network(1);
  EXPECT_EQ(serial, render_network(3))
      << "executor thread count changed the collected bytes";
  // 4 network modes x faults off/on; the fabric cells carry net stats and
  // every cell carries the attribution block.
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 8);
  EXPECT_NE(serial.find("\"network\":\"topology_results\""),
            std::string::npos);
  EXPECT_NE(serial.find("\"net\":{"), std::string::npos);
  EXPECT_NE(serial.find("\"attribution\":{\"tasks\":"), std::string::npos);
  expect_golden("runtime_network.jsonl", serial);
}

// Every observability output file, written by one small seeded run with
// the routed fabric, faults, an SLO deadline that fires, provenance with
// the oracle and every output path set; the runtime's merged Prometheus
// file must equal the observer's. The JSONL snapshots above pin only the records; this
// pins the bytes of each file the observer, the SLO monitor, the flight
// recorder and the task trace write.
TEST(Golden, ObsOutputFilesAreByteStable) {
  const std::string dir = ::testing::TempDir() + "leime_obs_golden_";
  sim::ScenarioConfig cfg = golden_base();
  const sim::DeviceSpec pi = cfg.devices[0];
  const sim::DeviceSpec nano = cfg.devices[1];
  cfg.devices = {pi, nano, pi, nano};
  cfg.devices[0].device_class = cfg.devices[2].device_class = "pi";
  cfg.devices[1].device_class = cfg.devices[3].device_class = "nano";
  cfg.duration = 20.0;
  cfg.seed = 20240131;
  cfg.topology.aps = 2;
  cfg.topology.ap_bandwidth = util::mbps(8.0);
  cfg.topology.ap_latency = util::ms(4.0);
  cfg.topology.queue_limit_bytes = 1.5e6;
  cfg.faults.edge.windows = {{8.0, 12.0}};
  cfg.faults.link.windows = {{5.0, 9.0, /*device=*/0}};
  cfg.faults.ap_windows = {{14.0, 16.0, /*device=*/1}};
  cfg.faults.degradation.detection_timeout = 0.5;
  cfg.faults.degradation.task_timeout = 3.0;
  cfg.faults.degradation.probe_period = 0.5;
  cfg.faults.degradation.max_retries = 2;
  cfg.policy_core.batch_eq20 = true;
  cfg.obs.trace_sample = 3;
  cfg.obs.slo.deadline = 0.25;
  cfg.obs.slo.window = 5.0;
  cfg.obs.slo.min_window_tasks = 5;
  cfg.obs.provenance.sample_n = 3;
  cfg.obs.provenance.ring_capacity = 8;
  cfg.obs.provenance.oracle_sample_n = 2;

  const std::vector<std::pair<std::string, std::string*>> files = {
      {"metrics_out", &cfg.obs.metrics_out},
      {"metrics_jsonl", &cfg.obs.metrics_jsonl},
      {"trace_out", &cfg.obs.trace_out},
      {"timeseries_out", &cfg.obs.timeseries_out},
      {"attribution_out", &cfg.obs.attribution_out},
      {"calibration_out", &cfg.obs.calibration_out},
      {"alerts_out", &cfg.obs.slo.alerts_out},
      {"decisions_out", &cfg.obs.provenance.decisions_out},
      {"dump_out", &cfg.obs.provenance.dump_out},
      {"task_trace", &cfg.task_trace_path},
  };
  for (const auto& [name, path] : files) *path = dir + name;
  RunRecord rec;
  rec.result = sim::run_scenario(cfg);
  const std::string runtime_prom = dir + "runtime_metrics_prometheus";
  write_metrics_prometheus(runtime_prom, {rec});

  std::string text;
  auto append = [&](const std::string& name, const std::string& path) {
    const std::string body = read_file(path);
    EXPECT_FALSE(body.empty()) << name << " was not written";
    text += "== " + name + "\n" + body;
    std::remove(path.c_str());
  };
  // One record merges to its own snapshot, so the runtime's Prometheus
  // file must repeat the observer's byte for byte.
  EXPECT_EQ(read_file(runtime_prom), read_file(cfg.obs.metrics_out));
  std::remove(runtime_prom.c_str());
  for (const auto& [name, path] : files) append(name, *path);
  EXPECT_GT(rec.result.slo.alerts.size(), 0u) << "the SLO never fired";
  EXPECT_GT(rec.result.provenance.oracle_runs, 0u);
  EXPECT_TRUE(rec.result.net.active);
  EXPECT_GT(rec.result.faults.edge_crashes, 0u);
  expect_golden("obs_outputs.txt", text);
}

TEST(Golden, SnapshotCoversFaultsOnAndOff) {
  const auto text = render(1);
  // 2 axis values x 2 replications.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("\"injection\":\"off\""), std::string::npos);
  EXPECT_NE(text.find("\"injection\":\"on\""), std::string::npos);
  // The fault counters ride along in every record.
  EXPECT_NE(text.find("\"failed_over\":"), std::string::npos);
  EXPECT_NE(text.find("\"total_completed\":"), std::string::npos);
  // Timing telemetry must be absent or the bytes could never be stable.
  EXPECT_EQ(text.find("\"worker\""), std::string::npos);
}

}  // namespace
}  // namespace leime::runtime
