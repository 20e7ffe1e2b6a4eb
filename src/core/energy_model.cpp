#include "core/energy_model.h"

#include <limits>
#include <stdexcept>

#include "util/check.h"

namespace leime::core {

EnergyModel::EnergyModel(models::ModelProfile profile, const Environment& env,
                         const EnergyParams& params)
    : cost_(std::move(profile), env), params_(params) {
  if (!params.valid())
    throw std::invalid_argument("EnergyModel: negative energy coefficients");
}

double EnergyModel::expected_energy(const ExitCombo& combo) const {
  const auto& profile = cost_.profile();
  // Compute: block 1 + the First-exit head, always on the device.
  const double device_flops = profile.prefix_flops(combo.e1) +
                              profile.exit(combo.e1).classifier_flops;
  const double compute = params_.compute_j_per_flop * device_flops;
  // Transmit: survivors of the First-exit upload d1.
  const double sigma1 = profile.exit(combo.e1).exit_rate;
  const double tx = params_.tx_j_per_byte * (1.0 - sigma1) *
                    profile.out_bytes_after(combo.e1);
  // Idle: the device waits for the edge (survivors of e1) and the cloud
  // (survivors of e2) before it has the final answer.
  const double sigma2 = profile.exit(combo.e2).exit_rate;
  const double idle_time =
      (1.0 - sigma1) * cost_.edge_time(combo.e1, combo.e2) +
      (1.0 - sigma2) * cost_.cloud_time(combo.e2);
  const double idle = params_.idle_watts * idle_time;
  return compute + tx + idle;
}

namespace {

EnergySettingResult scan(const EnergyModel& model, double latency_bound) {
  const auto& cost = model.cost_model();
  const int m = cost.num_exits();
  EnergySettingResult best;
  best.energy_j = std::numeric_limits<double>::infinity();
  for (int e1 = 1; e1 <= m - 2; ++e1) {
    for (int e2 = e1 + 1; e2 <= m - 1; ++e2) {
      const ExitCombo combo{e1, e2, m};
      const double tct = cost.expected_tct(combo);
      if (tct > latency_bound) continue;
      const double energy = model.expected_energy(combo);
      if (energy < best.energy_j ||
          (energy == best.energy_j && tct < best.expected_tct)) {
        best.combo = combo;
        best.energy_j = energy;
        best.expected_tct = tct;
      }
    }
  }
  return best;
}

}  // namespace

EnergySettingResult energy_optimal_exit_setting(const EnergyModel& model) {
  auto best = scan(model, std::numeric_limits<double>::infinity());
  LEIME_CHECK(best.energy_j < std::numeric_limits<double>::infinity());
  best.feasible = true;
  return best;
}

EnergySettingResult energy_optimal_exit_setting(const EnergyModel& model,
                                                double latency_bound) {
  if (latency_bound <= 0.0)
    throw std::invalid_argument(
        "energy_optimal_exit_setting: latency_bound must be > 0");
  auto best = scan(model, latency_bound);
  if (best.energy_j < std::numeric_limits<double>::infinity()) {
    best.feasible = true;
    return best;
  }
  best = energy_optimal_exit_setting(model);
  best.feasible = false;
  return best;
}

}  // namespace leime::core
