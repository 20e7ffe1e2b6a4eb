#include "sim/scenario_ini.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/simulation.h"

namespace leime::sim {
namespace {

constexpr const char* kScenario = R"(
[scenario]
model = squeezenet
policy = cap_based
duration = 30
warmup = 3
seed = 9
replications = 2
reallocation_period = 10
shared_uplink_mbps = 12
result_bytes = 1000

[edge]
gflops = 40
cloud_tflops = 2
cloud_mbps = 80
cloud_latency_ms = 25

[device]
gflops = 0.6
rate = 0.4
uplink_mbps = 8
uplink_latency_ms = 30
difficulty = 1.5

[device]
gflops = 6
rate = 0.8

[runtime]
threads = 4
seed_mode = legacy
jsonl = out/runs.jsonl
trace = out/cells.trace.json
progress = true
)";

TEST(ScenarioIni, ParsesEveryField) {
  const auto s = load_scenario(util::IniFile::parse_string(kScenario));
  EXPECT_EQ(s.profile.name(), "SqueezeNet-1.0");
  EXPECT_EQ(s.replications, 2);
  const auto& cfg = s.config;
  EXPECT_EQ(cfg.policy, "cap_based");
  EXPECT_DOUBLE_EQ(cfg.duration, 30.0);
  EXPECT_DOUBLE_EQ(cfg.warmup, 3.0);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_DOUBLE_EQ(cfg.reallocation_period, 10.0);
  EXPECT_DOUBLE_EQ(cfg.shared_uplink_bw, util::mbps(12.0));
  EXPECT_DOUBLE_EQ(cfg.result_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(cfg.edge_flops, util::gflops(40.0));
  EXPECT_DOUBLE_EQ(cfg.cloud_flops, util::tflops(2.0));
  ASSERT_EQ(cfg.devices.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.devices[0].flops, util::gflops(0.6));
  EXPECT_DOUBLE_EQ(cfg.devices[0].difficulty, 1.5);
  EXPECT_DOUBLE_EQ(cfg.devices[1].mean_rate, 0.8);
  // Defaults filled for the second device.
  EXPECT_DOUBLE_EQ(cfg.devices[1].uplink_bw, util::mbps(10.0));
  // The partition was actually designed.
  EXPECT_GT(cfg.partition.mu1, 0.0);
  EXPECT_GE(s.designed_exits.e1, 1);
  EXPECT_GT(s.expected_tct, 0.0);
  // [runtime] knobs.
  EXPECT_EQ(s.threads, 4);
  EXPECT_TRUE(s.legacy_seeds);
  EXPECT_EQ(s.jsonl_path, "out/runs.jsonl");
  EXPECT_EQ(s.trace_path, "out/cells.trace.json");
  EXPECT_TRUE(s.progress);
}

TEST(ScenarioIni, RuntimeSectionIsOptionalAndValidated) {
  const char* no_runtime =
      "[scenario]\nmodel = squeezenet\n[edge]\ngflops = 50\n"
      "[device]\nrate = 1\n";
  const auto s = load_scenario(util::IniFile::parse_string(no_runtime));
  EXPECT_EQ(s.threads, 1);
  EXPECT_FALSE(s.legacy_seeds);
  EXPECT_TRUE(s.jsonl_path.empty());

  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   "[scenario]\nmodel = squeezenet\n[edge]\ngflops = 50\n"
                   "[device]\nrate = 1\n[runtime]\nseed_mode = bogus\n")),
               std::invalid_argument);
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   "[scenario]\nmodel = squeezenet\n[edge]\ngflops = 50\n"
                   "[device]\nrate = 1\n[runtime]\nthreads = -2\n")),
               std::invalid_argument);
}

TEST(ScenarioIni, LoadedScenarioRuns) {
  const auto s = load_scenario(util::IniFile::parse_string(kScenario));
  const auto r = run_scenario(s.config);
  EXPECT_GT(r.generated, 5u);
}

TEST(ScenarioIni, Validation) {
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   "[scenario]\nmodel = inception\n[edge]\ngflops = 50\n")),
               std::invalid_argument);  // no devices
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          "[scenario]\nreplications = 0\n[edge]\ngflops = "
          "50\n[device]\nrate = 1\n")),
      std::invalid_argument);
  EXPECT_THROW(resolve_model_name("/nonexistent/profile.txt"),
               std::runtime_error);
  EXPECT_EQ(resolve_model_name("vgg16").name(), "VGG-16");
  EXPECT_EQ(resolve_model_name("resnet34").name(), "ResNet-34");
}

constexpr const char* kFleet =
    "[scenario]\nmodel = squeezenet\npolicy = E-only\nduration = 20\n"
    "seed = 5\n[edge]\ngflops = 50\n[device]\nrate = 1\n[device]\nrate = 1\n";

/// Loads `text` and expects std::invalid_argument whose message contains
/// `message`.
void expect_rejected(const std::string& text, const std::string& message) {
  try {
    load_scenario(util::IniFile::parse_string(text));
    ADD_FAILURE() << "expected std::invalid_argument for " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << e.what();
  }
}

// The four sections load_scenario reads itself check their keys like the
// optional sections' parsers do, so a typo fails instead of running on
// the default.
TEST(ScenarioIni, ScenarioSectionRejectsUnknownKeys) {
  expect_rejected(
      "[scenario]\nmodel = squeezenet\nduraton = 20\n[edge]\ngflops = 50\n"
      "[device]\nrate = 1\n",
      "[scenario] unknown key 'duraton' (valid keys: model policy");
}

TEST(ScenarioIni, EdgeSectionRejectsUnknownKeys) {
  expect_rejected(
      "[scenario]\nmodel = squeezenet\n[edge]\ngflops = 50\ncloud_gbps = 1\n"
      "[device]\nrate = 1\n",
      "[edge] unknown key 'cloud_gbps' (valid keys: gflops cloud_tflops");
}

TEST(ScenarioIni, DeviceSectionRejectsUnknownKeys) {
  expect_rejected(std::string(kFleet) + "[device]\nuplink_mbs = 20\n",
                  "[device] unknown key 'uplink_mbs' (valid keys: gflops "
                  "rate uplink_mbps uplink_latency_ms difficulty class)");
}

TEST(ScenarioIni, RuntimeSectionRejectsUnknownKeys) {
  expect_rejected(std::string(kFleet) + "[runtime]\nthread = 4\n",
                  "[runtime] unknown key 'thread' (valid keys: threads");
}

// kFleet with `lines` added to its [scenario] section.
std::string fleet_with_scenario_keys(const std::string& lines) {
  std::string text = kFleet;
  const std::string anchor = "seed = 5\n";
  text.insert(text.find(anchor) + anchor.size(), lines);
  return text;
}

// 0 means "off" for these keys; a negative value is an error that names
// the section and key instead of silently switching the feature off.
TEST(ScenarioIni, NegativeResultBytesIsRejectedByName) {
  expect_rejected(fleet_with_scenario_keys("result_bytes = -5\n"),
                  "[scenario] result_bytes must be >= 0");
  const auto off = load_scenario(util::IniFile::parse_string(
      fleet_with_scenario_keys("result_bytes = 0\n")));
  EXPECT_EQ(off.config.result_bytes, 0.0);
}

TEST(ScenarioIni, NegativeSharedUplinkIsRejectedByName) {
  expect_rejected(fleet_with_scenario_keys("shared_uplink_mbps = -10\n"),
                  "[scenario] shared_uplink_mbps must be >= 0");
  const auto off = load_scenario(util::IniFile::parse_string(
      fleet_with_scenario_keys("shared_uplink_mbps = 0\n")));
  EXPECT_EQ(off.config.shared_uplink_bw, 0.0);
}

TEST(ScenarioIni, NegativeSloDeadlineIsRejectedByName) {
  expect_rejected(std::string(kFleet) + "[slo]\ndeadline_ms = -1500\n",
                  "[slo] deadline_ms must be >= 0");
  const auto off = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[slo]\ndeadline_ms = 0\n"));
  EXPECT_FALSE(off.config.obs.slo.enabled());
}

// A present [slo] section is checked whole even while deadline_ms = 0
// keeps the monitor off, and each error names its key.
TEST(ScenarioIni, DisabledSloSectionStillChecksItsKeys) {
  const std::string off = std::string(kFleet) + "[slo]\ndeadline_ms = 0\n";
  expect_rejected(off + "window_s = 0\n", "[slo] window_s must be positive");
  expect_rejected(off + "target_miss_rate = 1.5\n",
                  "[slo] target_miss_rate must be in (0, 1]");
  expect_rejected(off + "burn_threshold = -1\n",
                  "[slo] burn_threshold must be positive");
  expect_rejected(std::string(kFleet) + "[slo]\nwindow_s = -3\n",
                  "[slo] window_s must be positive");
}

TEST(ScenarioIni, RepeatedOptionalSectionIsRejected) {
  // find() would take the first of several and drop the rest unread.
  for (const char* name : {"faults", "topology", "observability", "slo",
                           "provenance", "policy", "shards", "runtime"}) {
    const std::string section = std::string("[") + name + "]\n";
    expect_rejected(std::string(kFleet) + section + section,
                    "ini: duplicated section [" + std::string(name) + "]");
  }
}

TEST(ScenarioIni, OutOfRangeIntegersAreRejectedByName) {
  // Every int-typed key is range-checked before narrowing: 2^32 + 2 used
  // to wrap to 2 (a 2-AP fabric) and 2^32 + 1 to one replication.
  struct Case {
    const char* key;
    std::string text;
  };
  const std::string fleet = kFleet;
  const Case cases[] = {
      {"aps", fleet + "[topology]\naps = 4294967298\n"},
      {"threads", fleet + "[shards]\nshards = 2\nthreads = 4294967298\n"},
      {"quant_per_octave",
       fleet + "[policy]\nmemo_cache = true\nquant_per_octave = 4294967304\n"},
      {"replications",
       "[scenario]\nmodel = squeezenet\nreplications = 4294967297\n"
       "[edge]\ngflops = 50\n[device]\nrate = 1\n"},
      {"threads", fleet + "[runtime]\nthreads = 4294967297\n"},
      {"max_retries", fleet + "[faults]\nmax_retries = 4294967299\n"},
      {"aps", fleet + "[topology]\naps = 1e30\n"},
  };
  for (const auto& c : cases) {
    try {
      load_scenario(util::IniFile::parse_string(c.text));
      ADD_FAILURE() << "expected std::invalid_argument for " << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + c.key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioIni, NonFiniteNumbersAreRejectedByName) {
  // Each used to hang, skew the run or trip an internal check: a NaN or
  // infinite duration never ends, a NaN warmup counts no task, NaN
  // reallocation_period / result_bytes turn the feature off, and an
  // infinite uplink latency died on a LEIME_CHECK.
  struct Case {
    const char* section;
    const char* key;
    std::string text;
  };
  const std::string head = "[scenario]\nmodel = squeezenet\n";
  const std::string edge = "[edge]\ngflops = 50\n";
  const std::string device = "[device]\nrate = 1\n";
  const Case cases[] = {
      {"scenario", "duration", head + "duration = nan\n" + edge + device},
      {"scenario", "duration", head + "duration = inf\n" + edge + device},
      {"scenario", "warmup", head + "warmup = nan\n" + edge + device},
      {"scenario", "reallocation_period",
       head + "reallocation_period = nan\n" + edge + device},
      {"scenario", "result_bytes",
       head + "result_bytes = nan\n" + edge + device},
      {"device", "difficulty", head + edge + device + "difficulty = nan\n"},
      {"device", "uplink_latency_ms",
       head + edge + device + "uplink_latency_ms = inf\n"},
  };
  for (const auto& c : cases) {
    try {
      load_scenario(util::IniFile::parse_string(c.text));
      ADD_FAILURE() << "expected std::invalid_argument for " << c.text;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("[") + c.section + "]"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(std::string("'") + c.key + "'"), std::string::npos)
          << what;
    }
  }
}

TEST(ScenarioIni, FaultsSectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[faults]\n"
      "link_outage_windows = d0:3-6\n"
      "edge_down_windows = 5-12, 75-\n"
      "edge_crash_rate = 0.002\n"
      "churn = 1:8-15\n"
      "detection_timeout_s = 1\n"
      "task_timeout_s = 4\n"
      "max_retries = 3\n"));
  const auto& plan = s.config.faults;
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.link.windows.size(), 1u);
  EXPECT_EQ(plan.link.windows[0].device, 0);
  ASSERT_EQ(plan.edge.windows.size(), 2u);
  EXPECT_FALSE(std::isfinite(plan.edge.windows[1].end));
  EXPECT_DOUBLE_EQ(plan.edge.rate, 0.002);
  ASSERT_EQ(plan.churn.events.size(), 1u);
  EXPECT_EQ(plan.churn.events[0].device, 1);
  EXPECT_DOUBLE_EQ(plan.degradation.detection_timeout, 1.0);
  EXPECT_DOUBLE_EQ(plan.degradation.task_timeout, 4.0);
  EXPECT_EQ(plan.degradation.max_retries, 3);
  // The loaded scenario actually runs, with fault telemetry.
  const auto r = run_scenario(s.config);
  EXPECT_EQ(r.generated, r.total_completed + r.in_flight);
  EXPECT_GT(r.faults.failed_over, 0u);
}

TEST(ScenarioIni, FaultsSectionValidation) {
  const auto load = [](const std::string& faults) {
    return load_scenario(
        util::IniFile::parse_string(std::string(kFleet) + faults));
  };
  // Unknown keys name themselves and list the valid spelling.
  try {
    load("[faults]\nedge_crash_ratee = 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'edge_crash_ratee'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("edge_crash_rate"), std::string::npos) << what;
  }
  // Malformed windows, inverted ranges and out-of-fleet devices all throw.
  EXPECT_THROW(load("[faults]\nedge_down_windows = 45-30\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[faults]\nlink_outage_windows = 40-\n"),
               std::invalid_argument);  // links must heal
  EXPECT_THROW(load("[faults]\nlink_outage_windows = d7:40-50\n"),
               std::invalid_argument);  // fleet has 2 devices
  EXPECT_THROW(load("[faults]\nchurn = 5:30-60\n"), std::invalid_argument);
  EXPECT_THROW(load("[faults]\nchurn = 1:60-40\n"), std::invalid_argument);
  EXPECT_THROW(load("[faults]\nedge_crash_rate = -1\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[faults]\ndetection_timeout_s = 0\n"),
               std::invalid_argument);
}

TEST(ScenarioIni, EmptyFaultsSectionIsBitIdenticalToNone) {
  // Satellite contract: a present-but-empty [faults] section must not
  // change a single bit of the result.
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  const auto empty = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[faults]\nlink_outage_windows =\nchurn =\n"));
  EXPECT_EQ(empty.config.faults, FaultPlan{});
  EXPECT_FALSE(empty.config.faults.enabled());
  const auto a = run_scenario(bare.config);
  const auto b = run_scenario(empty.config);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_DOUBLE_EQ(a.tct.mean, b.tct.mean);
  EXPECT_DOUBLE_EQ(a.tct.p95, b.tct.p95);
  EXPECT_DOUBLE_EQ(a.mean_offload_ratio, b.mean_offload_ratio);
}

TEST(ScenarioIni, ObservabilitySectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[observability]\n"
      "metrics = true\n"
      "trace_sample = 8\n"
      "timeseries = true\n"
      "metrics_out = out/run.prom\n"
      "metrics_jsonl = out/run.metrics.jsonl\n"
      "trace_out = out/run.trace.json\n"
      "timeseries_out = out/run.series.csv\n"));
  const auto& obs = s.config.obs;
  EXPECT_TRUE(obs.metrics);
  EXPECT_EQ(obs.trace_sample, 8u);
  EXPECT_TRUE(obs.timeseries);
  EXPECT_EQ(obs.metrics_out, "out/run.prom");
  EXPECT_EQ(obs.metrics_jsonl, "out/run.metrics.jsonl");
  EXPECT_EQ(obs.trace_out, "out/run.trace.json");
  EXPECT_EQ(obs.timeseries_out, "out/run.series.csv");
  EXPECT_TRUE(obs.enabled());
}

TEST(ScenarioIni, ObservabilityOmittedOrEmptyStaysDisabled) {
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  EXPECT_FALSE(bare.config.obs.enabled());
  const auto empty = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[observability]\nmetrics_out =\n"));
  EXPECT_FALSE(empty.config.obs.enabled());
}

TEST(ScenarioIni, ObservabilityValidation) {
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   std::string(kFleet) + "[observability]\ntypo_key = 1\n")),
               std::invalid_argument);
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          std::string(kFleet) + "[observability]\ntrace_sample = -1\n")),
      std::invalid_argument);
}

TEST(ScenarioIni, ProvenanceSectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[provenance]\n"
      "sample_n = 4\n"
      "ring_capacity = 32\n"
      "oracle_sample_n = 8\n"
      "decisions_out = out/decisions.jsonl\n"
      "dump_out = out/flight.jsonl\n"));
  const auto& prov = s.config.obs.provenance;
  EXPECT_EQ(prov.sample_n, 4u);
  EXPECT_EQ(prov.ring_capacity, 32u);
  EXPECT_EQ(prov.oracle_sample_n, 8u);
  EXPECT_EQ(prov.decisions_out, "out/decisions.jsonl");
  EXPECT_EQ(prov.dump_out, "out/flight.jsonl");
  EXPECT_TRUE(prov.enabled());
  EXPECT_TRUE(s.config.obs.enabled());  // provenance alone turns obs on

  // A bare output path implies 1-in-1 sampling, like trace_out.
  const auto implied = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[provenance]\ndump_out = flight.jsonl\n"));
  EXPECT_EQ(implied.config.obs.provenance.effective_sample_n(), 1u);
}

TEST(ScenarioIni, ProvenanceOmittedOrEmptyStaysDisabled) {
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  EXPECT_FALSE(bare.config.obs.provenance.enabled());
  // sample_n = 0 with no outputs: section parses but pillar stays off,
  // and the remaining keys are still typo-checked.
  const auto off = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[provenance]\nsample_n = 0\ndecisions_out =\n"));
  EXPECT_FALSE(off.config.obs.provenance.enabled());
  EXPECT_FALSE(off.config.obs.enabled());
}

TEST(ScenarioIni, ProvenanceValidation) {
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   std::string(kFleet) + "[provenance]\ntypo_key = 1\n")),
               std::invalid_argument);
  EXPECT_THROW(load_scenario(util::IniFile::parse_string(
                   std::string(kFleet) + "[provenance]\nsample_n = -1\n")),
               std::invalid_argument);
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          std::string(kFleet) + "[provenance]\nring_capacity = 0\n")),
      std::invalid_argument);
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          std::string(kFleet) + "[provenance]\noracle_sample_n = -2\n")),
      std::invalid_argument);
}

TEST(ScenarioIni, CliObsOverridesBeatIniValues) {
  auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[observability]\nmetrics_out = ini.prom\ntrace_out = ini.json\n"
      "timeseries_out = ini.csv\n"));
  // Non-empty CLI values win; empty CLI values keep the INI ones.
  apply_obs_overrides(s.config.obs, "cli.prom", "");
  EXPECT_EQ(s.config.obs.metrics_out, "cli.prom");
  EXPECT_EQ(s.config.obs.trace_out, "ini.json");
  EXPECT_EQ(s.config.obs.timeseries_out, "ini.csv");
  apply_obs_overrides(s.config.obs, "", "cli.json");
  EXPECT_EQ(s.config.obs.metrics_out, "cli.prom");
  EXPECT_EQ(s.config.obs.trace_out, "cli.json");
}

TEST(ScenarioIni, FaultsSectionMatchesPlanBuiltInCode) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[faults]\nedge_down_windows = 30-45\nchurn = 1:60-95\n"
      "task_timeout_s = 2.5\n"));
  FaultPlan expected;
  expected.edge.windows = {{30.0, 45.0}};
  expected.churn.events = {{1, 60.0, 95.0}};
  expected.degradation.task_timeout = 2.5;
  EXPECT_EQ(s.config.faults, expected);
}

TEST(ScenarioIni, ApOutageWindowsParse) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[topology]\naps = 2\nap_mbps = 40\n"
      "[faults]\nap_outage_windows = a0:10-20, a1:30-35\n"));
  const auto& plan = s.config.faults;
  EXPECT_TRUE(plan.enabled());
  ASSERT_EQ(plan.ap_windows.size(), 2u);
  EXPECT_EQ(plan.ap_windows[0].device, 0);  // device field = AP index
  EXPECT_DOUBLE_EQ(plan.ap_windows[0].start, 10.0);
  EXPECT_EQ(plan.ap_windows[1].device, 1);
  EXPECT_DOUBLE_EQ(plan.ap_windows[1].end, 35.0);

  FaultPlan expected;
  expected.ap_windows = {{10.0, 20.0, 0}, {30.0, 35.0, 1}};
  EXPECT_EQ(plan, expected);
}

TEST(ScenarioIni, TopologySectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[topology]\n"
      "aps = 2\n"
      "ap_mbps = 40\n"
      "ap_latency_ms = 3\n"
      "device_map = 1, 0\n"
      "queue_limit_kb = 4096\n"));
  const auto& topo = s.config.topology;
  EXPECT_TRUE(topo.enabled());
  EXPECT_EQ(topo.aps, 2);
  EXPECT_DOUBLE_EQ(topo.ap_bandwidth, util::mbps(40.0));
  EXPECT_DOUBLE_EQ(topo.ap_latency, util::ms(3.0));
  EXPECT_EQ(topo.device_map, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(topo.queue_limit_bytes, 4096.0 * 1024.0);
  // The loaded scenario runs in fabric mode and reports fabric stats.
  const auto r = run_scenario(s.config);
  EXPECT_TRUE(r.net.active);
  EXPECT_GT(r.net.delivered, 0u);
}

TEST(ScenarioIni, TopologyOmittedOrDisabledKeepsTheFlatPath) {
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  EXPECT_FALSE(bare.config.topology.enabled());
  const auto off = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[topology]\naps = 0\n"));
  EXPECT_FALSE(off.config.topology.enabled());
  EXPECT_EQ(off.config.topology, net::TopologyConfig{});
  const auto a = run_scenario(bare.config);
  const auto b = run_scenario(off.config);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_DOUBLE_EQ(a.tct.mean, b.tct.mean);
  EXPECT_FALSE(b.net.active);
}

TEST(ScenarioIni, TopologySectionValidation) {
  const auto load = [](const std::string& extra) {
    return load_scenario(
        util::IniFile::parse_string(std::string(kFleet) + extra));
  };
  try {
    load("[topology]\naps = 1\nap_mpbs = 10\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'ap_mpbs'"), std::string::npos) << what;
    EXPECT_NE(what.find("ap_mbps"), std::string::npos) << what;
  }
  EXPECT_THROW(load("[topology]\naps = -1\n"), std::invalid_argument);
  EXPECT_THROW(load("[topology]\naps = 1\nap_mbps = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[topology]\naps = 1\nap_latency_ms = -2\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[topology]\naps = 2\ndevice_map = 0\n"),
               std::invalid_argument);  // fleet has 2 devices
  EXPECT_THROW(load("[topology]\naps = 2\ndevice_map = 0, 5\n"),
               std::invalid_argument);  // AP 5 out of range
  EXPECT_THROW(load("[topology]\naps = 2\ndevice_map = 0, x\n"),
               std::invalid_argument);  // not an index
  // The two shared-medium modes cannot be combined.
  EXPECT_THROW(
      load_scenario(util::IniFile::parse_string(
          "[scenario]\nmodel = squeezenet\nshared_uplink_mbps = 10\n"
          "[edge]\ngflops = 50\n[device]\nrate = 1\n[device]\nrate = 1\n"
          "[topology]\naps = 1\n")),
      std::invalid_argument);
  // AP outage windows need an enabled topology and an in-range AP.
  EXPECT_THROW(run_scenario(
                   load("[faults]\nap_outage_windows = a0:5-10\n").config),
               std::invalid_argument);
  EXPECT_THROW(
      run_scenario(load("[topology]\naps = 1\n"
                        "[faults]\nap_outage_windows = a3:5-10\n")
                       .config),
      std::invalid_argument);
}

TEST(ScenarioIni, PolicySectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[policy]\n"
      "memo_cache = true\n"
      "warm_start = true\n"
      "batch_eq20 = true\n"
      "cache_capacity = 128\n"
      "quant_per_octave = 8\n"));
  const auto& pol = s.config.policy_core;
  EXPECT_TRUE(pol.memo_cache);
  EXPECT_TRUE(pol.warm_start);
  EXPECT_TRUE(pol.batch_eq20);
  EXPECT_EQ(pol.cache_capacity, 128u);
  EXPECT_EQ(pol.quant_per_octave, 8);
  EXPECT_TRUE(pol.enabled());
}

TEST(ScenarioIni, PolicyOmittedOrEmptyStaysOff) {
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  EXPECT_FALSE(bare.config.policy_core.enabled());
  const auto empty = load_scenario(
      util::IniFile::parse_string(std::string(kFleet) + "[policy]\n"));
  EXPECT_FALSE(empty.config.policy_core.enabled());
  EXPECT_EQ(empty.config.policy_core.cache_capacity,
            policy::Config{}.cache_capacity);
}

TEST(ScenarioIni, PolicySectionValidation) {
  auto load = [](const std::string& extra) {
    return load_scenario(
        util::IniFile::parse_string(std::string(kFleet) + extra));
  };
  EXPECT_THROW(load("[policy]\ntypo_key = 1\n"), std::invalid_argument);
  EXPECT_THROW(load("[policy]\ncache_capacity = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[policy]\nquant_per_octave = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(load("[policy]\nquant_per_octave = 65\n"),
               std::invalid_argument);
}

TEST(ScenarioIni, PolicyFastPathsLeaveDesignAndRunIdentical) {
  // The design-time search routes through policy::Engine either way; with
  // every knob on, the designed exits, the cost estimate and the simulated
  // results must match the default-off load exactly (the INI-level face of
  // the policy_diff equivalence suite).
  const auto off = load_scenario(util::IniFile::parse_string(kFleet));
  const auto on = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[policy]\nmemo_cache = true\nwarm_start = true\nbatch_eq20 = "
      "true\n"));
  EXPECT_EQ(on.designed_exits, off.designed_exits);
  EXPECT_EQ(on.expected_tct, off.expected_tct);
  const auto a = run_scenario(off.config);
  const auto b = run_scenario(on.config);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_DOUBLE_EQ(a.tct.mean, b.tct.mean);
  EXPECT_DOUBLE_EQ(a.tct.p95, b.tct.p95);
  EXPECT_DOUBLE_EQ(a.mean_offload_ratio, b.mean_offload_ratio);
}

TEST(ScenarioIni, ShardsSectionParses) {
  const auto s = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) +
      "[shards]\n"
      "shards = 4\n"
      "threads = 2\n"));
  const auto& sh = s.config.shards;
  EXPECT_EQ(sh.shards, 4u);
  EXPECT_EQ(sh.threads, 2);
  EXPECT_TRUE(sh.enabled());
}

TEST(ScenarioIni, ShardsOmittedOrEmptyStaysSingleQueue) {
  const auto bare = load_scenario(util::IniFile::parse_string(kFleet));
  EXPECT_FALSE(bare.config.shards.enabled());
  const auto empty = load_scenario(
      util::IniFile::parse_string(std::string(kFleet) + "[shards]\n"));
  EXPECT_FALSE(empty.config.shards.enabled());
  EXPECT_EQ(empty.config.shards.shards, 1u);
  EXPECT_EQ(empty.config.shards.threads, 0);
}

TEST(ScenarioIni, ShardsSectionValidation) {
  auto load = [](const std::string& extra) {
    return load_scenario(
        util::IniFile::parse_string(std::string(kFleet) + extra));
  };
  try {
    load("[shards]\nshard = 4\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'shard'"), std::string::npos) << what;
    EXPECT_NE(what.find("(valid keys: shards threads)"), std::string::npos)
        << what;
  }
  EXPECT_THROW(load("[shards]\nshards = 0\n"), std::invalid_argument);
  EXPECT_THROW(load("[shards]\nshards = -2\n"), std::invalid_argument);
  EXPECT_THROW(load("[shards]\nthreads = -1\n"), std::invalid_argument);
  // The window is always the edge-cloud propagation delay; the old
  // window_ms knob is an unknown key now.
  try {
    load("[shards]\nwindow_ms = 10\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'window_ms'"),
              std::string::npos)
        << e.what();
  }
  // Sharded execution rejects configurations outside its contract at run
  // time (validate_sharded in simulation.cpp), with an error naming the
  // escape hatch.
  auto unsupported = load("[shards]\nshards = 2\n");
  unsupported.config.cloud_fifo = true;
  try {
    run_scenario(unsupported.config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[shards]"), std::string::npos) << what;
    EXPECT_NE(what.find("shards = 1"), std::string::npos) << what;
  }
}

TEST(ScenarioIni, ShardsLoadedScenarioMatchesSingleQueue) {
  // The INI-level face of the sharding determinism contract: a fleet
  // loaded with [shards] on runs to the same results as the same fleet
  // without the section.
  const auto off = load_scenario(util::IniFile::parse_string(kFleet));
  const auto on = load_scenario(util::IniFile::parse_string(
      std::string(kFleet) + "[shards]\nshards = 2\nthreads = 2\n"));
  const auto a = run_scenario(off.config);
  const auto b = run_scenario(on.config);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_DOUBLE_EQ(a.tct.mean, b.tct.mean);
  EXPECT_DOUBLE_EQ(a.tct.p95, b.tct.p95);
  EXPECT_DOUBLE_EQ(a.mean_offload_ratio, b.mean_offload_ratio);
}

}  // namespace
}  // namespace leime::sim
