#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/exit_setting.h"
#include "models/zoo.h"
#include "sim/scenario_ini.h"

#ifndef LEIME_CONFIG_DIR
#error "sim_test must be compiled with LEIME_CONFIG_DIR"
#endif

namespace leime::sim {
namespace {

ScenarioConfig base_scenario(int devices = 2) {
  const auto profile = models::make_inception_v3();
  ScenarioConfig cfg;
  cfg.partition = core::make_partition(profile, {3, 10, profile.num_units()});
  for (int i = 0; i < devices; ++i) {
    DeviceSpec d;
    d.mean_rate = 2.0;
    cfg.devices.push_back(d);
  }
  cfg.duration = 30.0;
  cfg.warmup = 2.0;
  return cfg;
}

TEST(Simulation, CompletesAllGeneratedTasks) {
  auto cfg = base_scenario();
  const auto r = run_scenario(cfg);
  EXPECT_GT(r.generated, 50u);
  // The run drains after generation stops, so all counted tasks complete.
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.tct.mean, 0.0);
  EXPECT_GT(r.tct.p95, r.tct.p50);
}

TEST(Simulation, DeterministicForSeed) {
  auto cfg = base_scenario();
  const auto r1 = run_scenario(cfg);
  const auto r2 = run_scenario(cfg);
  EXPECT_EQ(r1.generated, r2.generated);
  EXPECT_DOUBLE_EQ(r1.tct.mean, r2.tct.mean);
  EXPECT_DOUBLE_EQ(r1.mean_offload_ratio, r2.mean_offload_ratio);
}

TEST(Simulation, SeedChangesOutcome) {
  auto cfg = base_scenario();
  const auto r1 = run_scenario(cfg);
  cfg.seed = 43;
  const auto r2 = run_scenario(cfg);
  EXPECT_NE(r1.tct.mean, r2.tct.mean);
}

TEST(Simulation, ExitFractionsTrackSigmas) {
  auto cfg = base_scenario(1);
  cfg.duration = 120.0;
  cfg.devices[0].mean_rate = 4.0;
  const auto r = run_scenario(cfg);
  EXPECT_NEAR(r.exit1_fraction, cfg.partition.sigma1, 0.06);
  EXPECT_NEAR(r.exit1_fraction + r.exit2_fraction, cfg.partition.sigma2,
              0.06);
  EXPECT_NEAR(
      r.exit1_fraction + r.exit2_fraction + r.exit3_fraction, 1.0, 1e-9);
}

TEST(Simulation, DifficultyShiftsExitFractions) {
  auto cfg = base_scenario(1);
  cfg.devices[0].difficulty = 4.0;  // harder data
  const auto hard = run_scenario(cfg);
  cfg.devices[0].difficulty = 0.25;  // easier data
  const auto easy = run_scenario(cfg);
  EXPECT_GT(easy.exit1_fraction, hard.exit1_fraction);
}

TEST(Simulation, PolicySelection) {
  auto cfg = base_scenario(1);
  cfg.policy = "D-only";
  const auto d = run_scenario(cfg);
  EXPECT_DOUBLE_EQ(d.mean_offload_ratio, 0.0);
  cfg.policy = "E-only";
  const auto e = run_scenario(cfg);
  EXPECT_DOUBLE_EQ(e.mean_offload_ratio, 1.0);
  cfg.policy = "LEIME";
  cfg.fixed_ratio = 0.4;
  const auto f = run_scenario(cfg);
  EXPECT_DOUBLE_EQ(f.mean_offload_ratio, 0.4);
}

TEST(Simulation, LeimeHandlesOverloadBetterThanDeviceOnly) {
  // Use the optimised partition (deep First-exit) so offloading is viable,
  // then push arrivals beyond the device's first-block capacity: LEIME can
  // drain through both the device and the uplink, D-only cannot.
  const auto profile = models::make_inception_v3();
  core::CostModel cm(profile, core::testbed_environment());
  const auto combo = core::branch_and_bound_exit_setting(cm).combo;
  auto cfg = base_scenario(1);
  cfg.partition = core::make_partition(profile, combo);
  cfg.devices[0].mean_rate = 2.5;
  cfg.duration = 60.0;
  cfg.policy = "D-only";
  const auto donly = run_scenario(cfg);
  cfg.policy = "LEIME";
  const auto leime = run_scenario(cfg);
  EXPECT_LT(leime.tct.mean, donly.tct.mean);
}

TEST(Simulation, TimelineCoversRun) {
  auto cfg = base_scenario(1);
  const auto r = run_scenario(cfg);
  ASSERT_FALSE(r.timeline.empty());
  EXPECT_GT(r.timeline.back().time, 0.5 * cfg.duration);
  std::size_t total = 0;
  for (const auto& p : r.timeline) total += p.count;
  EXPECT_EQ(total, r.completed);
}

TEST(Simulation, UplinkShapingSlowsTasks) {
  auto cfg = base_scenario(1);
  cfg.policy = "E-only";  // every task crosses the uplink
  const auto fast = run_scenario(cfg);
  cfg.devices[0].uplink_bw_trace =
      util::PiecewiseConstant::constant(util::mbps(1.0));
  const auto slow = run_scenario(cfg);
  EXPECT_GT(slow.tct.mean, fast.tct.mean);
}

// A device's uplink traces are checked in every network mode, also the
// shared-AP mode, which builds no device uplink to carry them.
TEST(Simulation, InvalidUplinkTraceIsRejectedInEveryNetworkMode) {
  const auto flat = [](ScenarioConfig&) {};
  const auto shared_ap = [](ScenarioConfig& c) {
    c.shared_uplink_bw = util::mbps(20.0);
  };
  const auto fabric = [](ScenarioConfig& c) {
    c.topology.aps = 1;
    c.topology.ap_bandwidth = util::mbps(20.0);
  };
  for (void (*mode)(ScenarioConfig&) : {+flat, +shared_ap, +fabric}) {
    auto cfg = base_scenario(2);
    cfg.duration = 2.0;
    cfg.warmup = 0.0;
    mode(cfg);
    EXPECT_NO_THROW(run_scenario(cfg));
    auto bad_bw = cfg;
    bad_bw.devices[1].uplink_bw_trace =
        util::PiecewiseConstant({{0.0, util::mbps(5.0)}, {1.0, 0.0}});
    EXPECT_THROW(run_scenario(bad_bw), std::invalid_argument);
    auto bad_lat = cfg;
    bad_lat.devices[1].uplink_lat_trace =
        util::PiecewiseConstant({{0.0, 0.01}, {1.0, -1.0}});
    EXPECT_THROW(run_scenario(bad_lat), std::invalid_argument);
  }
}

TEST(Simulation, Validation) {
  ScenarioConfig cfg;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);  // no devices
  auto ok = base_scenario();
  ok.duration = 0.0;
  EXPECT_THROW(run_scenario(ok), std::invalid_argument);
  ok = base_scenario();
  ok.warmup = ok.duration + 1.0;
  EXPECT_THROW(run_scenario(ok), std::invalid_argument);
  ok = base_scenario();
  ok.policy = "unknown";
  EXPECT_THROW(run_scenario(ok), std::invalid_argument);
}

TEST(Simulation, NonFiniteDurationOrWarmupIsRejected) {
  // A NaN duration used to pass the check and never close the generation
  // window; a NaN warmup counted no task at all.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    for (const double duration : {nan, inf}) {
      auto cfg = base_scenario();
      cfg.shards.shards = shards;
      cfg.duration = duration;
      EXPECT_THROW(run_scenario(cfg), std::invalid_argument)
          << "duration " << duration << ", shards " << shards;
    }
    for (const double warmup : {nan, inf}) {
      auto cfg = base_scenario();
      cfg.shards.shards = shards;
      cfg.warmup = warmup;
      EXPECT_THROW(run_scenario(cfg), std::invalid_argument)
          << "warmup " << warmup << ", shards " << shards;
    }
  }
}

}  // namespace
}  // namespace leime::sim
namespace leime::sim {
namespace {

TEST(Simulation, DynamicReallocationTracksLoadSwap) {
  // Two identical devices whose loads swap mid-run. Static shares are
  // designed for the initial rates; dynamic reallocation re-balances after
  // the swap and must not be worse overall.
  const auto profile = models::make_inception_v3();
  core::CostModel cm(profile, core::testbed_environment());
  const auto part = core::make_partition(
      profile, core::branch_and_bound_exit_setting(cm).combo);

  auto make_cfg = [&](double realloc_period) {
    ScenarioConfig cfg;
    cfg.partition = part;
    for (int i = 0; i < 2; ++i) {
      DeviceSpec dev;
      dev.arrival = ArrivalKind::kTrace;
      cfg.devices.push_back(dev);
    }
    // Device 0: busy then idle; device 1: idle then busy.
    cfg.devices[0].mean_rate = 1.0;
    cfg.devices[0].rate_trace =
        util::PiecewiseConstant({{0.0, 1.5}, {60.0, 0.1}});
    cfg.devices[1].mean_rate = 0.1;
    cfg.devices[1].rate_trace =
        util::PiecewiseConstant({{0.0, 0.1}, {60.0, 1.5}});
    cfg.duration = 120.0;
    cfg.reallocation_period = realloc_period;
    return cfg;
  };

  const auto fixed = run_scenario(make_cfg(0.0));
  const auto dynamic = run_scenario(make_cfg(10.0));
  EXPECT_LE(dynamic.tct.mean, fixed.tct.mean * 1.05);
}

TEST(Simulation, NegativeOrNonFiniteResultBytesAndSharedUplinkAreRejected) {
  // 0 switches either feature off; a negative value used to do the same,
  // silently. Built in code, the config must fail like a bad duration.
  const double bad[] = {-5.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    auto cfg = base_scenario();
    cfg.result_bytes = v;
    EXPECT_THROW(run_scenario(cfg), std::invalid_argument)
        << "result_bytes " << v;
    cfg = base_scenario();
    cfg.shared_uplink_bw = v;
    EXPECT_THROW(run_scenario(cfg), std::invalid_argument)
        << "shared_uplink_bw " << v;
  }
  auto off = base_scenario();
  off.result_bytes = 0.0;
  off.shared_uplink_bw = 0.0;
  EXPECT_NO_THROW(run_scenario(off));
}

TEST(Simulation, ReallocationValidation) {
  auto cfg = base_scenario();
  cfg.reallocation_period = -1.0;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

TEST(Simulation, PerDeviceResultsAreConsistent) {
  auto cfg = base_scenario(3);
  const auto r = run_scenario(cfg);
  ASSERT_EQ(r.per_device.size(), 3u);
  std::size_t total = 0;
  for (const auto& d : r.per_device) {
    total += d.completed;
    EXPECT_GE(d.mean_offload_ratio, 0.0);
    EXPECT_LE(d.mean_offload_ratio, 1.0);
  }
  EXPECT_EQ(total, r.completed);
}

}  // namespace
}  // namespace leime::sim
namespace leime::sim {
namespace {

TEST(Simulation, ResultDownlinkAddsReturnTime) {
  auto cfg = base_scenario(1);
  cfg.devices[0].mean_rate = 0.2;  // light load: isolate the return path
  cfg.policy = "E-only";           // all completions return from edge/cloud
  cfg.duration = 120.0;
  const auto free_results = run_scenario(cfg);
  cfg.result_bytes = 50e3;  // 50 KB result
  const auto returned = run_scenario(cfg);
  // Each returned task pays >= result transfer + propagation once.
  const double per_return =
      cfg.result_bytes / cfg.devices[0].uplink_bw + cfg.devices[0].uplink_lat;
  EXPECT_GT(returned.tct.mean, free_results.tct.mean + 0.8 * per_return);
}

TEST(Simulation, CloudFifoCreatesContention) {
  auto cfg = base_scenario(1);
  // Force heavy block-3 traffic: hard data, everything offloaded.
  cfg.devices[0].difficulty = 8.0;
  cfg.devices[0].mean_rate = 2.0;
  cfg.policy = "E-only";
  cfg.cloud_flops = 2e9;  // tiny "cloud": block-3 service slower than its arrival rate
  const auto uncontended = run_scenario(cfg);
  cfg.cloud_fifo = true;
  const auto contended = run_scenario(cfg);
  EXPECT_GT(contended.tct.mean, uncontended.tct.mean);
}

}  // namespace
}  // namespace leime::sim
namespace leime::sim {
namespace {

TEST(Simulation, TaskTraceExport) {
  auto cfg = base_scenario(1);
  cfg.duration = 15.0;
  cfg.task_trace_path = testing::TempDir() + "/leime_task_trace.csv";
  const auto r = run_scenario(cfg);
  std::ifstream in(cfg.task_trace_path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line,
            "task,device,t_arrive,t_complete,tct,exit_block,offloaded,counted");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, r.generated);
  std::remove(cfg.task_trace_path.c_str());
}

}  // namespace
}  // namespace leime::sim
namespace leime::sim {
namespace {

TEST(Simulation, SharedUplinkSerializesDevices) {
  // Four devices offloading everything: dedicated 10 Mbps each vs one
  // shared 10 Mbps AP. The shared medium must be far slower.
  const auto profile = models::make_inception_v3();
  core::CostModel cm(profile, core::testbed_environment());
  auto cfg = base_scenario(4);
  cfg.partition = core::make_partition(
      profile, core::branch_and_bound_exit_setting(cm).combo);
  for (auto& d : cfg.devices) d.mean_rate = 0.5;
  cfg.policy = "E-only";
  cfg.duration = 60.0;
  const auto dedicated = run_scenario(cfg);
  cfg.shared_uplink_bw = util::mbps(10.0);
  const auto shared = run_scenario(cfg);
  EXPECT_GT(shared.tct.mean, 1.5 * dedicated.tct.mean);
}

TEST(Simulation, SharedUplinkKeepsPerDeviceLatency) {
  // One device on the shared medium behaves like a dedicated link of the
  // same bandwidth: the extra latency must be applied once per transfer.
  auto cfg = base_scenario(1);
  cfg.devices[0].mean_rate = 0.2;
  cfg.policy = "E-only";
  cfg.duration = 100.0;
  const auto dedicated = run_scenario(cfg);
  cfg.shared_uplink_bw = cfg.devices[0].uplink_bw;
  const auto shared = run_scenario(cfg);
  EXPECT_NEAR(shared.tct.mean, dedicated.tct.mean,
              0.05 * dedicated.tct.mean);
}

TEST(Simulation, LeimeThrottlesOnSharedMedium) {
  // On a saturated shared AP the controller sees the shared backlog and
  // keeps more work local than E-only, winning on TCT. This requires a
  // partition where the local path puts FEWER bytes on the medium
  // (d0 > (1-sigma1)*d1, i.e. a deep First-exit) and devices fast enough
  // to absorb the local work: Jetson Nanos with exits (10, 14).
  const auto profile = models::make_inception_v3();
  auto cfg = base_scenario(4);
  cfg.partition =
      core::make_partition(profile, {10, 14, profile.num_units()});
  ASSERT_GT(cfg.partition.d0,
            (1.0 - cfg.partition.sigma1) * cfg.partition.d1);
  for (auto& d : cfg.devices) {
    d.flops = core::kJetsonNanoFlops;
    d.mean_rate = 0.5;
  }
  cfg.shared_uplink_bw = util::mbps(10.0);
  cfg.duration = 60.0;
  cfg.policy = "E-only";
  const auto eonly = run_scenario(cfg);
  cfg.policy = "LEIME";
  const auto leime = run_scenario(cfg);
  EXPECT_LT(leime.tct.mean, eonly.tct.mean);
  EXPECT_LT(leime.mean_offload_ratio, 0.9);  // it actually throttled
}

}  // namespace
}  // namespace leime::sim
namespace leime::sim {
namespace {

TEST(Simulation, BacklogFeedbackPreventsUplinkOversubscription) {
  // Near uplink saturation, the memoryless eq. 8 budget (paper) lets the
  // controller oversubscribe the link across slots; the backlog-aware
  // budget must do no worse — and typically much better.
  const auto profile = models::make_inception_v3();
  core::CostModel cm(profile, core::testbed_environment());
  auto cfg = base_scenario(1);
  cfg.partition = core::make_partition(
      profile, core::branch_and_bound_exit_setting(cm).combo);
  cfg.devices[0].mean_rate = 1.0;  // ~0.86 uplink utilisation if offloaded
  cfg.duration = 120.0;
  cfg.uplink_backlog_feedback = false;
  const auto memoryless = run_scenario(cfg);
  cfg.uplink_backlog_feedback = true;
  const auto aware = run_scenario(cfg);
  EXPECT_LE(aware.tct.mean, memoryless.tct.mean * 1.05);
}

// Every config shipped under configs/ loads and runs: one replication,
// capped at 20 simulated seconds, conserves its tasks and reports only
// finite numbers. The flat, faulted and fabric configs all pass through
// the simulator's network layer this way.
TEST(Simulation, EveryShippedConfigLoadsAndRuns) {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(LEIME_CONFIG_DIR))
    if (entry.path().extension() == ".ini")
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 3u);
  for (const auto& path : paths) {
    SCOPED_TRACE(path);
    auto cfg = load_scenario_file(path).config;
    cfg.duration = std::min(cfg.duration, 20.0);
    cfg.warmup = std::min(cfg.warmup, 0.5 * cfg.duration);
    const auto r = run_scenario(cfg);
    EXPECT_GT(r.generated, 0u);
    EXPECT_EQ(r.generated, r.total_completed + r.in_flight);
    const auto finite_summary = [](const util::Summary& s) {
      return std::isfinite(s.mean) && std::isfinite(s.stddev) &&
             std::isfinite(s.min) && std::isfinite(s.p50) &&
             std::isfinite(s.p95) && std::isfinite(s.p99) &&
             std::isfinite(s.max);
    };
    EXPECT_TRUE(finite_summary(r.tct));
    for (const double v :
         {r.exit1_fraction, r.exit2_fraction, r.exit3_fraction,
          r.mean_offload_ratio, r.mean_device_queue, r.mean_edge_queue,
          r.net.bytes, r.net.max_backlog_bytes})
      EXPECT_TRUE(std::isfinite(v));
    for (const auto& point : r.timeline)
      EXPECT_TRUE(std::isfinite(point.time) && std::isfinite(point.mean_tct));
    ASSERT_EQ(r.per_device.size(), cfg.devices.size());
    for (const auto& dev : r.per_device) {
      EXPECT_TRUE(finite_summary(dev.tct));
      EXPECT_TRUE(std::isfinite(dev.mean_offload_ratio));
    }
  }
}

}  // namespace
}  // namespace leime::sim
