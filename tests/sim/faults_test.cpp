#include "sim/faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/partition.h"
#include "models/zoo.h"
#include "sim/simulation.h"
#include "util/ini.h"

namespace leime::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------ pure helpers

TEST(FaultWindows, MergeSortsAndCoalesces) {
  const auto merged =
      merge_windows({{10.0, 12.0}, {1.0, 5.0}, {4.0, 6.0}, {6.0, 7.0}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].start, 1.0);
  EXPECT_DOUBLE_EQ(merged[0].end, 7.0);
  EXPECT_DOUBLE_EQ(merged[1].start, 10.0);
  EXPECT_DOUBLE_EQ(merged[1].end, 12.0);
  EXPECT_TRUE(merge_windows({}).empty());

  // An open-ended window swallows everything after its start.
  const auto open = merge_windows({{30.0, kInf}, {40.0, 50.0}, {5.0, 6.0}});
  ASSERT_EQ(open.size(), 2u);
  EXPECT_DOUBLE_EQ(open[1].start, 30.0);
  EXPECT_EQ(open[1].end, kInf);
}

TEST(FaultWindows, DownAtRespectsHalfOpenWindows) {
  const std::vector<FaultWindow> windows{{1.0, 7.0}, {10.0, 12.0}};
  EXPECT_FALSE(down_at(windows, 0.5));
  EXPECT_TRUE(down_at(windows, 1.0));   // start inclusive
  EXPECT_TRUE(down_at(windows, 6.999));
  EXPECT_FALSE(down_at(windows, 7.0));  // end exclusive
  EXPECT_TRUE(down_at(windows, 11.0));
  EXPECT_FALSE(down_at(windows, 100.0));
}

TEST(FaultTimeline, EdgeQueries) {
  FaultTimeline tl;
  tl.edge_down = {{10.0, 20.0}, {30.0, kInf}};
  EXPECT_TRUE(tl.edge_up_at(5.0));
  EXPECT_FALSE(tl.edge_up_at(15.0));
  EXPECT_FALSE(tl.edge_up_at(1e9));
  EXPECT_DOUBLE_EQ(tl.next_edge_up(5.0), 5.0);    // already up
  EXPECT_DOUBLE_EQ(tl.next_edge_up(15.0), 20.0);  // heals at window end
  EXPECT_DOUBLE_EQ(tl.next_edge_up(25.0), 25.0);
  EXPECT_EQ(tl.next_edge_up(35.0), kInf);         // never returns

  tl.link_down = {{{1.0, 2.0}}, {}, {{3.0, 4.0}, {5.0, 6.0}}};
  EXPECT_EQ(tl.link_outage_count(), 3u);
}

TEST(FaultPlan, EnabledOnlyWithFaultSources) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  // Degradation knobs alone do not make the plan active.
  plan.degradation.task_timeout = 2.0;
  plan.degradation.detection_timeout = 5.0;
  EXPECT_FALSE(plan.enabled());

  FaultPlan link = plan;
  link.link.windows = {{1.0, 2.0}};
  EXPECT_TRUE(link.enabled());
  FaultPlan rate = plan;
  rate.edge.rate = 0.01;
  EXPECT_TRUE(rate.enabled());
  FaultPlan churn = plan;
  churn.churn.events = {{0, 10.0, -1.0}};
  EXPECT_TRUE(churn.enabled());
}

TEST(FaultPlan, ValidateRejectsBadInput) {
  const auto expect_throw = [](FaultPlan plan, std::size_t devices,
                               const std::string& fragment) {
    try {
      plan.validate(devices);
      FAIL() << "expected std::invalid_argument mentioning '" << fragment
             << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "actual message: " << e.what();
    }
  };

  FaultPlan ok;
  ok.validate(2);  // empty plan is fine

  FaultPlan plan;
  plan.link.rate = -0.1;
  expect_throw(plan, 2, "link_outage_rate");

  plan = {};
  plan.edge.mean_downtime = 0.0;
  expect_throw(plan, 2, "edge_downtime_mean_s");

  plan = {};
  plan.link.windows = {{5.0, 2.0}};  // inverted
  expect_throw(plan, 2, "end must be after start");

  plan = {};
  plan.link.windows = {{5.0, kInf}};  // links must heal
  expect_throw(plan, 2, "open-ended");

  plan = {};
  plan.edge.windows = {{5.0, kInf}};  // edge may stay dead
  plan.validate(2);

  plan = {};
  plan.link.windows = {{1.0, 2.0, /*device=*/5}};
  expect_throw(plan, 2, "fleet has 2 devices");

  plan = {};
  plan.churn.events = {{3, 10.0, -1.0}};
  expect_throw(plan, 2, "churn names device 3");

  plan = {};
  plan.churn.events = {{0, 10.0, 8.0}};  // rejoin before leave
  expect_throw(plan, 2, "rejoin must be after leave");

  plan = {};
  plan.degradation.detection_timeout = 0.0;
  expect_throw(plan, 2, "detection_timeout_s");

  plan = {};
  plan.degradation.max_retries = -1;
  expect_throw(plan, 2, "max_retries");

  plan = {};
  plan.degradation.probe_period = 0.0;
  expect_throw(plan, 2, "probe_period_s");
}

TEST(Materialize, DeterministicForEqualSeeds) {
  FaultPlan plan;
  plan.link.rate = 0.05;
  plan.link.mean_duration = 1.5;
  plan.edge.rate = 0.02;
  plan.edge.mean_downtime = 4.0;
  plan.churn.events = {{1, 40.0, 70.0}, {0, 10.0, -1.0}};

  util::Rng a(99), b(99), c(100);
  const auto ta = materialize_faults(plan, 3, 500.0, a);
  const auto tb = materialize_faults(plan, 3, 500.0, b);
  EXPECT_EQ(ta.link_down, tb.link_down);
  EXPECT_EQ(ta.edge_down, tb.edge_down);
  EXPECT_EQ(ta.churn, tb.churn);
  // A different seed draws a different schedule.
  const auto tc = materialize_faults(plan, 3, 500.0, c);
  EXPECT_NE(ta.edge_down, tc.edge_down);

  // Over a 500 s horizon the Poisson sources certainly fire, and churn is
  // re-sorted by leave time.
  EXPECT_GT(ta.link_outage_count(), 0u);
  EXPECT_GT(ta.edge_down.size(), 0u);
  ASSERT_EQ(ta.churn.size(), 2u);
  EXPECT_EQ(ta.churn[0].device, 0);
  EXPECT_EQ(ta.churn[1].device, 1);
}

TEST(Materialize, ScopesWindowsAndMergesLanes) {
  FaultPlan plan;
  plan.link.windows = {{1.0, 2.0, /*device=*/-1},  // every device
                       {1.5, 3.0, /*device=*/1},
                       {10.0, 11.0, /*device=*/0}};
  util::Rng rng(7);
  const auto tl = materialize_faults(plan, 2, 100.0, rng);
  ASSERT_EQ(tl.link_down.size(), 2u);
  // Device 0: the fleet-wide window plus its own, disjoint.
  ASSERT_EQ(tl.link_down[0].size(), 2u);
  EXPECT_DOUBLE_EQ(tl.link_down[0][0].end, 2.0);
  EXPECT_DOUBLE_EQ(tl.link_down[0][1].start, 10.0);
  // Device 1: its overlapping window merged with the fleet-wide one.
  ASSERT_EQ(tl.link_down[1].size(), 1u);
  EXPECT_DOUBLE_EQ(tl.link_down[1][0].start, 1.0);
  EXPECT_DOUBLE_EQ(tl.link_down[1][0].end, 3.0);
  // Disjoint/sorted windows is exactly what each sorted lane guarantees.
  for (const auto& lane : tl.link_down)
    for (std::size_t i = 1; i < lane.size(); ++i)
      EXPECT_GT(lane[i].start, lane[i - 1].end);
}

// ------------------------------------------------------------- INI parsing

TEST(FaultsIni, ParseSerializeRoundTrip) {
  FaultPlan plan;
  plan.link.windows = {{40.0, 50.0, 0}, {80.0, 90.0, -1}};
  plan.link.rate = 0.01;
  plan.link.mean_duration = 2.5;
  plan.edge.windows = {{30.0, 45.0}, {100.0, kInf}};
  plan.edge.rate = 0.002;
  plan.edge.mean_downtime = 8.0;
  plan.churn.events = {{2, 30.0, 60.0}, {1, 80.0, -1.0}};
  plan.degradation.detection_timeout = 1.0;
  plan.degradation.task_timeout = 4.0;
  plan.degradation.max_retries = 3;
  plan.degradation.retry_backoff = 0.5;
  plan.degradation.probe_period = 0.25;

  const auto text = serialize_faults_ini(plan);
  const auto ini = util::IniFile::parse_string(text);
  const auto* section = ini.find("faults");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(parse_faults_section(*section), plan);

  // The default plan round-trips too (no window/churn lines emitted).
  const FaultPlan empty;
  const auto empty_ini =
      util::IniFile::parse_string(serialize_faults_ini(empty));
  EXPECT_EQ(parse_faults_section(*empty_ini.find("faults")), empty);
}

TEST(FaultsIni, AcceptsScopedAndOpenWindows) {
  const auto ini = util::IniFile::parse_string(
      "[faults]\n"
      "link_outage_windows = d0:40-50, 100-103\n"
      "edge_down_windows = 30-45, 200-\n"
      "churn = 1:60-95, 0:110-\n"
      "task_timeout_s = 4\n");
  const auto plan = parse_faults_section(*ini.find("faults"));
  ASSERT_EQ(plan.link.windows.size(), 2u);
  EXPECT_EQ(plan.link.windows[0].device, 0);
  EXPECT_DOUBLE_EQ(plan.link.windows[0].start, 40.0);
  EXPECT_EQ(plan.link.windows[1].device, -1);
  ASSERT_EQ(plan.edge.windows.size(), 2u);
  EXPECT_EQ(plan.edge.windows[1].end, kInf);
  ASSERT_EQ(plan.churn.events.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.churn.events[0].rejoin, 95.0);
  EXPECT_DOUBLE_EQ(plan.churn.events[1].rejoin, -1.0);
  EXPECT_DOUBLE_EQ(plan.degradation.task_timeout, 4.0);
  // Empty values mean "no entries", matching the shipped template.
  const auto blank = util::IniFile::parse_string(
      "[faults]\nlink_outage_windows =\nchurn =\n");
  EXPECT_EQ(parse_faults_section(*blank.find("faults")), FaultPlan{});
}

TEST(FaultsIni, RejectsUnknownAndMalformedKeys) {
  const auto parse = [](const std::string& body) {
    const auto ini = util::IniFile::parse_string("[faults]\n" + body);
    return parse_faults_section(*ini.find("faults"));
  };
  try {
    parse("edge_down_window = 10-20\n");  // typo: missing the plural s
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown key 'edge_down_window'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("edge_down_windows"), std::string::npos)
        << "message should list the valid keys: " << what;
  }
  EXPECT_THROW(parse("edge_down_windows = 10\n"), std::invalid_argument);
  EXPECT_THROW(parse("edge_down_windows = ten-20\n"), std::invalid_argument);
  EXPECT_THROW(parse("churn = 30-60\n"), std::invalid_argument);
  // Indices are range-checked before the cast to int.
  EXPECT_THROW(parse("link_outage_windows = d1e30:5-9\n"),
               std::invalid_argument);
  EXPECT_THROW(parse("churn = inf:30-60\n"), std::invalid_argument);
  EXPECT_THROW(parse("churn = 4294967297:30-60\n"), std::invalid_argument);
  EXPECT_THROW(parse("churn = 2:\n"), std::invalid_argument);
}

// ---------------------------------------------------------- sim behaviour

ScenarioConfig fault_scenario(const std::string& policy, int devices = 1) {
  static const core::MeDnnPartition partition = [] {
    // Fixed early-exit design: sigma1 ~ 0.6 keeps meaningful work on both
    // tiers, so fault behaviour on either side is visible.
    const auto profile = models::make_squeezenet();
    return core::make_partition(profile, {4, 8, profile.num_units()});
  }();
  ScenarioConfig cfg;
  cfg.partition = partition;
  for (int i = 0; i < devices; ++i) {
    DeviceSpec dev;
    dev.flops = core::kRaspberryPiFlops;
    dev.mean_rate = 1.0;
    cfg.devices.push_back(dev);
  }
  cfg.policy = policy;
  cfg.duration = 30.0;
  cfg.warmup = 2.0;
  cfg.seed = 17;
  cfg.faults.degradation.detection_timeout = 0.5;
  cfg.faults.degradation.probe_period = 0.5;
  return cfg;
}

void expect_conservation(const SimResult& r) {
  EXPECT_EQ(r.generated, r.total_completed + r.in_flight);
  EXPECT_EQ(r.in_flight, r.faults.parked);
}

TEST(SimFaults, InactivePlanLeavesRunBitIdentical) {
  const auto base = run_scenario(fault_scenario("LEIME", 2));
  // Degradation knobs without fault sources must not perturb anything:
  // the fault machinery (extra RNG fork, timeline events) stays off.
  auto cfg = fault_scenario("LEIME", 2);
  cfg.faults.degradation.detection_timeout = 3.0;
  cfg.faults.degradation.probe_period = 9.0;
  cfg.faults.degradation.retry_backoff = 1.0;
  const auto tuned = run_scenario(cfg);
  EXPECT_EQ(tuned.generated, base.generated);
  EXPECT_EQ(tuned.total_completed, base.total_completed);
  EXPECT_DOUBLE_EQ(tuned.tct.mean, base.tct.mean);
  EXPECT_DOUBLE_EQ(tuned.tct.p95, base.tct.p95);
  EXPECT_DOUBLE_EQ(tuned.mean_offload_ratio, base.mean_offload_ratio);
  ASSERT_EQ(tuned.per_device.size(), base.per_device.size());
  for (std::size_t i = 0; i < base.per_device.size(); ++i) {
    EXPECT_EQ(tuned.per_device[i].completed, base.per_device[i].completed);
    EXPECT_DOUBLE_EQ(tuned.per_device[i].tct.mean,
                     base.per_device[i].tct.mean);
  }
  // Fault-free runs report all-zero counters and full conservation.
  EXPECT_EQ(base.in_flight, 0u);
  EXPECT_EQ(base.generated, base.total_completed);
  EXPECT_EQ(base.faults.failed_over, 0u);
  EXPECT_EQ(base.faults.fallback_slots, 0u);
  EXPECT_EQ(base.faults.link_outages, 0u);
}

TEST(SimFaults, EdgeOutageFailsOverAndHeals) {
  auto cfg = fault_scenario("E-only");
  cfg.faults.edge.windows = {{5.0, 15.0}};
  const auto r = run_scenario(cfg);
  expect_conservation(r);
  EXPECT_EQ(r.faults.edge_crashes, 1u);
  EXPECT_GT(r.faults.failed_over, 0u);
  // The window heals, so everything eventually completes.
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_EQ(r.generated, r.total_completed);
  // Per-device counters roll up into the fleet counters.
  std::size_t dev_failed = 0;
  for (const auto& d : r.per_device) dev_failed += d.failed_over;
  EXPECT_EQ(dev_failed, r.faults.failed_over);
}

TEST(SimFaults, EdgeNeverReturningParksBlockTwoWork) {
  auto cfg = fault_scenario("E-only");
  cfg.faults.edge.windows = {{5.0, kInf}};
  const auto r = run_scenario(cfg);
  expect_conservation(r);
  EXPECT_GT(r.faults.failed_over, 0u);
  // Block-2 work has nowhere to run without an edge: it parks, and the
  // conservation identity accounts for it as in-flight.
  EXPECT_GT(r.faults.parked, 0u);
  EXPECT_EQ(r.in_flight, r.faults.parked);
  EXPECT_LT(r.total_completed, r.generated);
}

TEST(SimFaults, LinkOutageHoldsBytesUntilRecovery) {
  auto base = fault_scenario("E-only");
  const auto clean = run_scenario(base);
  auto cfg = fault_scenario("E-only");
  cfg.faults.link.windows = {{5.0, 15.0}};
  const auto r = run_scenario(cfg);
  expect_conservation(r);
  EXPECT_EQ(r.faults.link_outages, 1u);
  // Bytes are held, not lost: every task still completes, later.
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_EQ(r.generated, clean.generated);
  EXPECT_GT(r.tct.mean, clean.tct.mean);
}

TEST(SimFaults, ChurnStopsArrivalsWhileAbsent) {
  const auto clean = run_scenario(fault_scenario("LEIME", 2));
  auto cfg = fault_scenario("LEIME", 2);
  cfg.faults.churn.events = {{1, 5.0, -1.0}};  // leaves at 5 s, never back
  const auto gone = run_scenario(cfg);
  expect_conservation(gone);
  EXPECT_EQ(gone.faults.churn_events, 1u);
  EXPECT_LT(gone.generated, clean.generated);

  auto back_cfg = fault_scenario("LEIME", 2);
  back_cfg.faults.churn.events = {{1, 5.0, 15.0}};  // returns at 15 s
  const auto back = run_scenario(back_cfg);
  expect_conservation(back);
  EXPECT_EQ(back.faults.churn_events, 2u);  // leave + rejoin
  EXPECT_GT(back.generated, gone.generated);
  EXPECT_LE(back.generated, clean.generated);
}

TEST(SimFaults, TaskTimeoutRetriesThenFallsBackLocally) {
  auto cfg = fault_scenario("E-only");
  cfg.faults.link.windows = {{5.0, 20.0}};
  cfg.faults.degradation.task_timeout = 1.0;
  cfg.faults.degradation.max_retries = 1;
  cfg.faults.degradation.retry_backoff = 0.25;
  const auto r = run_scenario(cfg);
  expect_conservation(r);
  // Tasks stuck behind the dead uplink hit the watchdog, burn the retry
  // budget and finish on the device CPU instead.
  EXPECT_GT(r.faults.retries, 0u);
  EXPECT_GT(r.faults.local_fallbacks, 0u);
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_EQ(r.generated, r.total_completed);
}

TEST(SimFaults, FallbackPolicyDegradesToDeviceOnlyDuringOutage) {
  auto cfg = fault_scenario("LEIME+fallback");
  cfg.faults.edge.windows = {{5.0, 15.0}};
  const auto r = run_scenario(cfg);
  expect_conservation(r);
  // While the edge is down the wrapped policy pins x = 0; those slots are
  // counted so benches can report how often degradation engaged.
  EXPECT_GT(r.faults.fallback_slots, 0u);
  EXPECT_EQ(r.in_flight, 0u);
}

}  // namespace
}  // namespace leime::sim
