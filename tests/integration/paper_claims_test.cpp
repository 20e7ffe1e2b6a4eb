// Coarse checks of the paper's headline claims on reference scenarios.
// These mirror the bench harnesses but with generous margins so they stay
// robust as regression tests.
#include <gtest/gtest.h>

#include "baselines/exit_baselines.h"
#include "core/exit_setting.h"
#include "models/zoo.h"
#include "sim/simulation.h"

namespace leime {
namespace {

sim::ScenarioConfig scenario_for(const core::MeDnnPartition& part,
                                 const std::string& policy,
                                 double fixed_ratio = -1.0) {
  sim::ScenarioConfig cfg;
  cfg.partition = part;
  sim::DeviceSpec dev;
  // Light load: Fig. 7/8 compare per-task latency, not saturation.
  dev.mean_rate = 0.5;
  cfg.devices.push_back(dev);
  cfg.policy = policy;
  cfg.fixed_ratio = fixed_ratio;
  cfg.duration = 120.0;
  cfg.warmup = 5.0;
  return cfg;
}

TEST(PaperClaims, LeimeBeatsAllBaselinesOnReferenceScenario) {
  // Fig. 7/8 shape: LEIME (optimal exits + online offloading) vs DDNN,
  // Edgent (heuristic exits, no offloading) and Neurosurgeon (no exits).
  const auto profile = models::make_inception_v3();
  const auto env = core::testbed_environment();
  core::CostModel cm(profile, env);

  const auto leime_combo = core::branch_and_bound_exit_setting(cm).combo;
  const auto leime =
      sim::run_scenario(scenario_for(core::make_partition(profile, leime_combo),
                                     "LEIME"));

  const auto ddnn = sim::run_scenario(scenario_for(
      core::make_partition(profile, baselines::ddnn_exit_setting(profile)),
      "LEIME", 0.0));
  const auto edgent = sim::run_scenario(scenario_for(
      core::make_partition(profile, baselines::edgent_exit_setting(profile)),
      "LEIME", 0.0));
  const auto neuro = sim::run_scenario(scenario_for(
      core::make_no_exit_partition(profile, leime_combo.e1, leime_combo.e2),
      "LEIME", 0.0));

  EXPECT_LT(leime.tct.mean, ddnn.tct.mean);
  EXPECT_LT(leime.tct.mean, edgent.tct.mean);
  EXPECT_LT(leime.tct.mean, neuro.tct.mean);
}

TEST(PaperClaims, EarlyExitBeatsNoExitUnderPoorNetwork) {
  // §I: intensive intermediate data is the bottleneck; early exits avoid it.
  // Easy data (paper's CIFAR-10 regime): gamma 0.5 gives σ1 ≈ 0.5 at a
  // third of the depth, so half the tasks never touch the poor uplink.
  models::ZooOptions easy;
  easy.exit_rate_gamma = 0.5;
  const auto profile = models::make_inception_v3(easy);
  // Jetson Nano device: compute is affordable, so the poor uplink is the
  // bottleneck the early exits remove.
  auto env = core::testbed_environment(core::kJetsonNanoFlops);
  env.net.dev_edge_bw = util::mbps(2.0);
  env.net.dev_edge_lat = util::ms(150.0);
  core::CostModel cm(profile, env);
  const auto combo = core::branch_and_bound_exit_setting(cm).combo;

  auto cfg_me = scenario_for(core::make_partition(profile, combo), "LEIME");
  auto cfg_ne = scenario_for(
      core::make_no_exit_partition(profile, combo.e1, combo.e2), "LEIME");
  for (auto* cfg : {&cfg_me, &cfg_ne}) {
    cfg->devices[0].flops = core::kJetsonNanoFlops;
    cfg->devices[0].uplink_bw = util::mbps(2.0);
    cfg->devices[0].uplink_lat = util::ms(150.0);
    cfg->devices[0].mean_rate = 0.1;
    cfg->duration = 400.0;
  }
  const auto me = sim::run_scenario(cfg_me);
  const auto ne = sim::run_scenario(cfg_ne);
  EXPECT_LT(1.5 * me.tct.mean, ne.tct.mean);  // at least 1.5x better
}

TEST(PaperClaims, OnlineOffloadingAdaptsToArrivalRate) {
  // Fig. 10(b) shape: at high arrival rates the gap between LEIME and the
  // static baselines widens.
  const auto profile = models::make_inception_v3();
  const auto env = core::testbed_environment(core::kJetsonNanoFlops);
  core::CostModel cm(profile, env);
  const auto part = core::make_partition(
      profile, core::branch_and_bound_exit_setting(cm).combo);

  auto run = [&](const std::string& policy, double rate) {
    auto cfg = scenario_for(part, policy);
    cfg.devices[0].flops = core::kJetsonNanoFlops;
    cfg.devices[0].mean_rate = rate;
    cfg.duration = 40.0;
    return sim::run_scenario(cfg).tct.mean;
  };

  // At a high rate the worst static policy suffers far more than LEIME.
  const double leime_hi = run("LEIME", 20.0);
  const double donly_hi = run("D-only", 20.0);
  const double eonly_hi = run("E-only", 20.0);
  EXPECT_LT(leime_hi, donly_hi * 1.05);
  EXPECT_LT(leime_hi, eonly_hi * 1.05);
  EXPECT_LT(leime_hi, std::max(donly_hi, eonly_hi) * 0.8);
}

TEST(PaperClaims, StabilityUnderDynamicArrivals) {
  // Fig. 9 shape: with a rate trace spiking 4x, LEIME's windowed mean TCT
  // stays bounded while D-only degrades.
  const auto profile = models::make_inception_v3();
  const auto env = core::testbed_environment();
  core::CostModel cm(profile, env);
  const auto part = core::make_partition(
      profile, core::branch_and_bound_exit_setting(cm).combo);

  auto make_cfg = [&](const std::string& policy) {
    auto cfg = scenario_for(part, policy);
    cfg.devices[0].arrival = sim::ArrivalKind::kTrace;
    cfg.devices[0].rate_trace = util::PiecewiseConstant(
        {{0.0, 2.0}, {20.0, 8.0}, {40.0, 2.0}});
    cfg.duration = 60.0;
    return cfg;
  };
  const auto leime = sim::run_scenario(make_cfg("LEIME"));
  const auto donly = sim::run_scenario(make_cfg("D-only"));
  EXPECT_LT(leime.tct.mean, donly.tct.mean);
  EXPECT_LT(leime.tct.p95, donly.tct.p95);
}

TEST(PaperClaims, FleetLeimeStabilisesWhereDeviceOnlyDiverges) {
  // P1 with N devices sharing one edge through the eq. 27 shares: each
  // device receives tasks faster than it can run block 1 alone, so
  // device-only backlogs keep growing while LEIME drains them to the edge.
  const auto profile = models::make_inception_v3();
  core::CostModel cm(profile, core::testbed_environment());
  const auto part = core::make_partition(
      profile, core::branch_and_bound_exit_setting(cm).combo);

  auto run = [&](const std::string& policy) {
    auto cfg = scenario_for(part, policy);
    cfg.devices.clear();
    for (const double flops : {core::kRaspberryPiFlops,
                               core::kJetsonNanoFlops,
                               core::kRaspberryPiFlops}) {
      sim::DeviceSpec dev;
      dev.flops = flops;
      dev.uplink_bw = util::mbps(10.0);
      dev.uplink_lat = util::ms(20.0);
      dev.mean_rate = 3.0;
      cfg.devices.push_back(dev);
    }
    cfg.duration = 60.0;
    return sim::run_scenario(cfg);
  };
  const auto leime = run("LEIME");
  const auto donly = run("D-only");
  EXPECT_LT(leime.tct.mean, 0.5 * donly.tct.mean);
  EXPECT_LT(leime.mean_device_queue, donly.mean_device_queue);
}

}  // namespace
}  // namespace leime
namespace leime {
namespace {

/// Broad regression matrix: on sequential per-task latency, LEIME never
/// loses to any paper baseline for any (model, device) pair.
class NeverLosesTest
    : public testing::TestWithParam<std::tuple<models::ModelKind, double>> {};

TEST_P(NeverLosesTest, LeimeAtLeastMatchesEveryBaseline) {
  const auto [kind, device_flops] = GetParam();
  const auto profile = models::make_profile(kind);
  const auto env = core::testbed_environment(device_flops);
  core::CostModel cm(profile, env);
  const auto combo = core::branch_and_bound_exit_setting(cm).combo;

  auto sequential = [&](const core::MeDnnPartition& part,
                        const std::string& policy, double ratio) {
    sim::ScenarioConfig cfg;
    cfg.partition = part;
    sim::DeviceSpec dev;
    dev.flops = device_flops;
    dev.arrival = sim::ArrivalKind::kPeriodic;
    dev.mean_rate = 1.0 / 80.0;
    cfg.devices.push_back(dev);
    cfg.policy = policy;
    cfg.fixed_ratio = ratio;
    cfg.duration = 80.0 * 25;
    cfg.warmup = 0.0;
    return sim::run_scenario(cfg).tct.mean;
  };

  const double leime =
      sequential(core::make_partition(profile, combo), "LEIME", -1.0);
  const double neuro = sequential(
      core::make_no_exit_partition(profile, combo.e1, combo.e2), "LEIME", 0.0);
  const double edgent = sequential(
      core::make_partition(profile, baselines::edgent_exit_setting(profile)),
      "LEIME", 0.0);
  const double ddnn = sequential(
      core::make_partition(profile, baselines::ddnn_exit_setting(profile)),
      "LEIME", 0.0);
  // 3% slack for Bernoulli exit-draw noise.
  EXPECT_LE(leime, neuro * 1.03);
  EXPECT_LE(leime, edgent * 1.03);
  EXPECT_LE(leime, ddnn * 1.03);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsBothDevices, NeverLosesTest,
    testing::Combine(testing::ValuesIn(models::all_model_kinds()),
                     testing::Values(core::kRaspberryPiFlops,
                                     core::kJetsonNanoFlops)),
    [](const auto& info) {
      std::string n = models::to_string(std::get<0>(info.param));
      for (auto& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n + (std::get<1>(info.param) == core::kRaspberryPiFlops
                      ? "_RPi"
                      : "_Nano");
    });

}  // namespace
}  // namespace leime
