#include "core/energy_model.h"

#include <gtest/gtest.h>

#include "core/exit_setting.h"
#include "models/zoo.h"

namespace leime::core {
namespace {

EnergyModel testbed_model(EnergyParams params = {}) {
  return EnergyModel(models::make_inception_v3(), testbed_environment(),
                     params);
}

TEST(EnergyModel, HandComputedComponents) {
  // Zero out two of the three components at a time to check each term.
  const auto profile = models::make_inception_v3();
  const auto env = testbed_environment();
  const ExitCombo combo{5, 10, profile.num_units()};

  EnergyParams compute_only{1e-9, 0.0, 0.0};
  EnergyModel mc(profile, env, compute_only);
  const double flops =
      profile.prefix_flops(5) + profile.exit(5).classifier_flops;
  EXPECT_DOUBLE_EQ(mc.expected_energy(combo), 1e-9 * flops);

  EnergyParams tx_only{0.0, 1e-7, 0.0};
  EnergyModel mt(profile, env, tx_only);
  EXPECT_DOUBLE_EQ(mt.expected_energy(combo),
                   1e-7 * (1.0 - profile.exit(5).exit_rate) *
                       profile.out_bytes_after(5));

  EnergyParams idle_only{0.0, 0.0, 2.0};
  EnergyModel mi(profile, env, idle_only);
  CostModel cm(profile, env);
  const double expect_idle =
      2.0 * ((1.0 - profile.exit(5).exit_rate) * cm.edge_time(5, 10) +
             (1.0 - profile.exit(10).exit_rate) * cm.cloud_time(10));
  EXPECT_NEAR(mi.expected_energy(combo), expect_idle, 1e-12);
}

TEST(EnergyModel, EnergyOptimumBeatsAllCombos) {
  const auto model = testbed_model();
  const auto best = energy_optimal_exit_setting(model);
  const int m = model.cost_model().num_exits();
  for (int e1 = 1; e1 <= m - 2; ++e1)
    for (int e2 = e1 + 1; e2 <= m - 1; ++e2)
      EXPECT_GE(model.expected_energy({e1, e2, m}) + 1e-15, best.energy_j);
}

TEST(EnergyModel, EnergyAndLatencyOptimaCanDiffer) {
  // Heavy transmit pricing should pull the energy optimum towards deeper
  // First-exits (fewer uploaded bytes) than the latency optimum.
  EnergyParams radio_heavy;
  radio_heavy.tx_j_per_byte = 2e-6;
  radio_heavy.compute_j_per_flop = 1e-10;
  const auto model = testbed_model(radio_heavy);
  const auto energy_best = energy_optimal_exit_setting(model);
  const auto latency_best =
      branch_and_bound_exit_setting(model.cost_model());
  EXPECT_GE(energy_best.combo.e1, latency_best.combo.e1);
}

TEST(EnergyModel, LatencyBoundedEnergySetting) {
  const auto model = testbed_model();
  const auto latency_best =
      branch_and_bound_exit_setting(model.cost_model());
  // Generous bound: feasible, energy <= unconstrained latency-optimal's.
  const auto bounded =
      energy_optimal_exit_setting(model, 2.0 * latency_best.cost);
  EXPECT_TRUE(bounded.feasible);
  EXPECT_LE(bounded.expected_tct, 2.0 * latency_best.cost + 1e-12);
  EXPECT_LE(bounded.energy_j,
            model.expected_energy(latency_best.combo) + 1e-12);
  // Impossible bound: fallback flagged.
  const auto impossible =
      energy_optimal_exit_setting(model, 0.01 * latency_best.cost);
  EXPECT_FALSE(impossible.feasible);
  EXPECT_EQ(impossible.combo, energy_optimal_exit_setting(model).combo);
}

TEST(EnergyModel, TighterBoundNeverLowersEnergy) {
  const auto model = testbed_model();
  const auto latency_best =
      branch_and_bound_exit_setting(model.cost_model());
  double prev_energy = -1.0;
  for (double slack : {4.0, 2.0, 1.5, 1.1, 1.0}) {
    const auto r =
        energy_optimal_exit_setting(model, slack * latency_best.cost);
    if (!r.feasible) continue;
    if (prev_energy >= 0.0) {
      EXPECT_GE(r.energy_j + 1e-15, prev_energy);
    }
    prev_energy = r.energy_j;
  }
}

TEST(EnergyModel, Validation) {
  EnergyParams bad;
  bad.tx_j_per_byte = -1.0;
  EXPECT_THROW(
      EnergyModel(models::make_squeezenet(), testbed_environment(), bad),
      std::invalid_argument);
  const auto model = testbed_model();
  EXPECT_THROW(energy_optimal_exit_setting(model, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace leime::core
