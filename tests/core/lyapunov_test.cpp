#include "core/lyapunov.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/partition.h"
#include "models/zoo.h"

namespace leime::core {
namespace {

MeDnnPartition test_partition() {
  const auto profile = models::make_inception_v3();
  return make_partition(profile, {3, 10, profile.num_units()});
}

/// A deeper, realistic First-exit: d1 < d0 and σ1 ≈ 0.5, the regime the
/// branch-and-bound search actually selects on the testbed environment.
MeDnnPartition deep_partition() {
  const auto profile = models::make_inception_v3();
  return make_partition(profile, {10, 14, profile.num_units()});
}

DeviceSlotState base_state(const MeDnnPartition& part) {
  DeviceSlotState s;
  s.partition = &part;
  s.device_flops = kRaspberryPiFlops;
  s.edge_share_flops = 0.25 * kEdgeDesktopFlops;
  s.bandwidth = leime::util::mbps(10.0);
  s.latency = leime::util::ms(20.0);
  s.queue_device = 2.0;
  s.queue_edge = 1.0;
  s.arrivals = 5.0;
  s.config = {50.0, 1.0};
  return s;
}

TEST(Lyapunov, EdgeFirstBlockFlopsEq9) {
  const auto part = test_partition();
  auto s = base_state(part);
  // Closed-form check against eq. 9.
  const double x = 0.6;
  const double expect = x * part.mu1 * s.edge_share_flops /
                        (x * part.mu1 + (1.0 - part.sigma1) * part.mu2);
  EXPECT_DOUBLE_EQ(edge_first_block_flops(s, x), expect);
  EXPECT_DOUBLE_EQ(edge_first_block_flops(s, 0.0), 0.0);
  EXPECT_LT(edge_first_block_flops(s, 1.0), s.edge_share_flops);
}

TEST(Lyapunov, EdgeShareGrowsWithOffloadRatio) {
  const auto part = test_partition();
  auto s = base_state(part);
  double prev = 0.0;
  for (double x = 0.1; x <= 1.0; x += 0.1) {
    const double f = edge_first_block_flops(s, x);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(Lyapunov, ServiceRates) {
  const auto part = test_partition();
  auto s = base_state(part);
  EXPECT_DOUBLE_EQ(device_service_tasks(s),
                   s.device_flops * s.config.tau / part.mu1);
  EXPECT_DOUBLE_EQ(edge_service_tasks(s, 0.0), 0.0);
  EXPECT_GT(edge_service_tasks(s, 0.7), 0.0);
}

TEST(Lyapunov, DeviceCostZeroAtFullOffload) {
  const auto part = test_partition();
  auto s = base_state(part);
  EXPECT_DOUBLE_EQ(device_slot_cost(s, 1.0), 0.0);
  EXPECT_GT(device_slot_cost(s, 0.0), 0.0);
}

TEST(Lyapunov, EdgeCostZeroAtNoOffload) {
  const auto part = test_partition();
  auto s = base_state(part);
  EXPECT_DOUBLE_EQ(edge_slot_cost(s, 0.0), 0.0);
  EXPECT_GT(edge_slot_cost(s, 1.0), 0.0);
}

TEST(Lyapunov, CostsAreMonotoneInRatio) {
  const auto part = test_partition();
  auto s = base_state(part);
  double prev_d = device_slot_cost(s, 0.0);
  double prev_e = edge_slot_cost(s, 0.0);
  for (double x = 0.1; x <= 1.0 + 1e-12; x += 0.1) {
    const double d = device_slot_cost(s, x);
    const double e = edge_slot_cost(s, x);
    EXPECT_LE(d, prev_d + 1e-9);
    EXPECT_GE(e, prev_e - 1e-9);
    prev_d = d;
    prev_e = e;
  }
}

TEST(Lyapunov, BacklogRaisesCost) {
  const auto part = test_partition();
  auto s = base_state(part);
  auto s_loaded = s;
  s_loaded.queue_device = 20.0;
  EXPECT_GT(device_slot_cost(s_loaded, 0.5), device_slot_cost(s, 0.5));
  s_loaded = s;
  s_loaded.queue_edge = 20.0;
  EXPECT_GT(edge_slot_cost(s_loaded, 0.5), edge_slot_cost(s, 0.5));
}

TEST(Lyapunov, FeasibleIntervalUnconstrainedWhenIdle) {
  const auto part = test_partition();
  auto s = base_state(part);
  s.arrivals = 0.0;
  const auto iv = feasible_offload_interval(s);
  EXPECT_DOUBLE_EQ(iv.lo, 0.0);
  EXPECT_DOUBLE_EQ(iv.hi, 1.0);
}

TEST(Lyapunov, FeasibleIntervalCapsHeavyOffload) {
  // With a deep First-exit, d0 > (1-σ1)·d1, so offloading raw inputs costs
  // more uplink than forwarding survivors: moderate arrivals cap x below 1.
  const auto part = deep_partition();
  ASSERT_GT(part.d0, (1.0 - part.sigma1) * part.d1);
  auto s = base_state(part);
  s.arrivals = 2.0;
  const auto iv = feasible_offload_interval(s);
  EXPECT_DOUBLE_EQ(iv.lo, 0.0);
  EXPECT_GT(iv.hi, 0.0);
  EXPECT_LT(iv.hi, 1.0);
  // The cap matches eq. 8 solved for x.
  const double budget = s.bandwidth * (s.config.tau - s.latency);
  const double expect_hi =
      (budget - s.arrivals * (1.0 - part.sigma1) * part.d1) /
      (s.arrivals * (part.d0 - (1.0 - part.sigma1) * part.d1));
  EXPECT_NEAR(iv.hi, expect_hi, 1e-9);
}

TEST(Lyapunov, FeasibleIntervalPinsWhenShallowExitFloodsUplink) {
  // A shallow First-exit whose intermediate tensor is larger than the raw
  // input ((1-σ1)·d1 > d0) makes full offload the least-violating choice
  // once the uplink budget is exceeded.
  const auto part = test_partition();
  ASSERT_LT(part.d0, (1.0 - part.sigma1) * part.d1);
  auto s = base_state(part);
  s.arrivals = 40.0;
  const auto iv = feasible_offload_interval(s);
  EXPECT_DOUBLE_EQ(iv.lo, 1.0);
  EXPECT_DOUBLE_EQ(iv.hi, 1.0);
}

TEST(Lyapunov, MinimizerStaysFeasible) {
  const auto part = test_partition();
  auto s = base_state(part);
  for (double arrivals : {1.0, 5.0, 20.0, 60.0}) {
    s.arrivals = arrivals;
    const auto iv = feasible_offload_interval(s);
    const double x = minimize_drift_plus_penalty(s);
    EXPECT_GE(x, iv.lo - 1e-12);
    EXPECT_LE(x, iv.hi + 1e-12);
  }
}

TEST(Lyapunov, MinimizerBeatsGridOfAlternatives) {
  const auto part = test_partition();
  auto s = base_state(part);
  const double x_star = minimize_drift_plus_penalty(s);
  const double v_star = drift_plus_penalty(s, x_star);
  const auto iv = feasible_offload_interval(s);
  for (int g = 0; g <= 100; ++g) {
    const double x = iv.lo + (iv.hi - iv.lo) * g / 100.0;
    EXPECT_GE(drift_plus_penalty(s, x) + 1e-9, v_star);
  }
}

TEST(Lyapunov, WeakDeviceOffloadsMore) {
  const auto part = deep_partition();
  auto weak = base_state(part);
  weak.arrivals = 1.0;
  weak.queue_device = 0.0;
  weak.device_flops = kRaspberryPiFlops;
  auto strong = weak;
  strong.device_flops = kJetsonNanoFlops;
  EXPECT_GT(minimize_drift_plus_penalty(weak),
            minimize_drift_plus_penalty(strong));
}

TEST(Lyapunov, DeviceBacklogPushesWorkToEdge) {
  const auto part = deep_partition();
  auto s = base_state(part);
  s.device_flops = kJetsonNanoFlops;  // fast enough to prefer local when idle
  s.arrivals = 1.0;
  s.queue_device = 0.0;
  s.queue_edge = 0.0;
  const double x_idle = minimize_drift_plus_penalty(s);
  s.queue_device = 50.0;
  const double x_backlogged = minimize_drift_plus_penalty(s);
  EXPECT_GT(x_backlogged, x_idle);
}

TEST(Lyapunov, BalanceRuleEqualisesCosts) {
  const auto part = test_partition();
  auto s = base_state(part);
  const double x = balance_offload_ratio(s);
  const auto iv = feasible_offload_interval(s);
  if (x > iv.lo + 1e-6 && x < iv.hi - 1e-6) {
    // Interior crossing: costs should match closely.
    EXPECT_NEAR(device_slot_cost(s, x), edge_slot_cost(s, x),
                1e-3 * (device_slot_cost(s, x) + 1.0));
  }
}

TEST(Lyapunov, BalanceAgreesWithExactSolverForLargeV) {
  // As V -> inf the drift terms vanish and P1' reduces to minimising Y(x);
  // the minimum of T_d + T_e with opposite monotonicity is near the
  // balance point.
  const auto part = test_partition();
  auto s = base_state(part);
  s.config.V = 1e9;
  const double x_exact = minimize_drift_plus_penalty(s);
  const double x_balance = balance_offload_ratio(s);
  EXPECT_NEAR(x_exact, x_balance, 0.15);
}

TEST(Lyapunov, Validation) {
  const auto part = test_partition();
  auto s = base_state(part);
  s.device_flops = 0.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base_state(part);
  s.partition = nullptr;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base_state(part);
  s.latency = 2.0;  // exceeds tau
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base_state(part);
  s.queue_device = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}


// Every field rejects NaN and ±inf with std::invalid_argument naming it.
// Before, `v <= 0.0`-style checks let NaN through: the solvers returned
// x = 0 or 1 on most fields and tripped an internal LEIME_CHECK on
// edge_share_flops and arrivals.
template <class Set>
void expect_non_finite_rejected(const std::string& field, Set set) {
  const auto part = test_partition();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    auto s = base_state(part);
    set(s, bad);
    try {
      s.validate();
      ADD_FAILURE() << field << " = " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(": " + field + " must"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(minimize_drift_plus_penalty(s), std::invalid_argument);
    EXPECT_THROW(balance_offload_ratio(s), std::invalid_argument);
  }
}

TEST(LyapunovValidation, DeviceFlopsMustBeFinite) {
  expect_non_finite_rejected(
      "device_flops", [](DeviceSlotState& s, double v) { s.device_flops = v; });
}

TEST(LyapunovValidation, EdgeShareFlopsMustBeFinite) {
  expect_non_finite_rejected("edge_share_flops",
                             [](DeviceSlotState& s, double v) {
                               s.edge_share_flops = v;
                             });
}

TEST(LyapunovValidation, BandwidthMustBeFinite) {
  expect_non_finite_rejected(
      "bandwidth", [](DeviceSlotState& s, double v) { s.bandwidth = v; });
}

TEST(LyapunovValidation, LatencyMustBeFinite) {
  expect_non_finite_rejected(
      "latency", [](DeviceSlotState& s, double v) { s.latency = v; });
}

TEST(LyapunovValidation, QueueDeviceMustBeFinite) {
  expect_non_finite_rejected(
      "queue_device", [](DeviceSlotState& s, double v) { s.queue_device = v; });
}

TEST(LyapunovValidation, QueueEdgeMustBeFinite) {
  expect_non_finite_rejected(
      "queue_edge", [](DeviceSlotState& s, double v) { s.queue_edge = v; });
}

TEST(LyapunovValidation, ArrivalsMustBeFinite) {
  expect_non_finite_rejected(
      "arrivals", [](DeviceSlotState& s, double v) { s.arrivals = v; });
}

TEST(LyapunovValidation, VMustBeFinite) {
  expect_non_finite_rejected(
      "V", [](DeviceSlotState& s, double v) { s.config.V = v; });
}

TEST(LyapunovValidation, TauMustBeFinite) {
  expect_non_finite_rejected(
      "tau", [](DeviceSlotState& s, double v) { s.config.tau = v; });
}

// A negative backlog used to be accepted and enlarge the eq. 8 budget.
TEST(LyapunovValidation, UplinkBacklogMustBeFiniteAndNonNegative) {
  expect_non_finite_rejected("uplink_backlog_bytes",
                             [](DeviceSlotState& s, double v) {
                               s.uplink_backlog_bytes = v;
                             });
  const auto part = test_partition();
  auto s = base_state(part);
  s.uplink_backlog_bytes = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.uplink_backlog_bytes = 0.0;
  EXPECT_NO_THROW(s.validate());
}

}  // namespace
}  // namespace leime::core
