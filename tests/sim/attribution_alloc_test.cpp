// Zero-allocation steady-state gate for the attribution pillar (DESIGN.md
// §13). Once the ledger's pool, index and hop arena and the fold's port
// table cover the peak number of tasks in flight, a task that goes
// through generation, an uplink with two fabric hops, edge compute and
// completion — with metrics and calibration on — performs no heap
// allocation and no free. Rows, trace and SLO stay off: they keep
// per-task records by design (the SLO window is a std::deque). The
// counters come from tests/support/alloc_hooks.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/observer.h"
#include "support/alloc_hooks.h"

namespace leime::sim {
namespace {

constexpr int kDevices = 8;
constexpr std::uint64_t kInFlight = 64;

/// Runs tasks [first, first + count) with up to kInFlight open at once;
/// every 1000th task is parked instead of completed. Returns the clock.
double drive(RecordingObserver& obs, std::uint64_t first, std::uint64_t count,
             double t) {
  for (std::uint64_t k = first; k < first + count + kInFlight; ++k) {
    t += 0.01;
    if (k < first + count) {
      const int dev = static_cast<int>(k % kDevices);
      if (k % 50 == 0) {
        SlotTelemetry tel;
        tel.x = 0.5;
        tel.pred = {0.01, 0.02, 0.03, 0.01, 0.02, 0.5, true};
        obs.on_slot_decision(dev, t, tel);
      }
      obs.on_task_generated(k, dev, t, 1, true);
      obs.on_phase_begin(k, dev, Phase::kUpRaw, "fabric", t, t, 0);
    }
    if (k < first + kInFlight) continue;
    const std::uint64_t j = k - kInFlight;
    const int dev = static_cast<int>(j % kDevices);
    const double t0 = t - 0.3;
    if (j % 1000 == 999) {
      obs.on_task_parked(j, dev, t);
      continue;
    }
    obs.on_net_hop(j, static_cast<std::uint32_t>(dev), t0, t0 + 0.01,
                   t0 + 0.05);
    obs.on_net_hop(j, kDevices + static_cast<std::uint32_t>(dev / 4),
                   t0 + 0.05, t0 + 0.07, t0 + 0.1);
    obs.on_phase_end(j, t0 + 0.1);
    obs.on_phase_begin(j, dev, Phase::kEdge1, "edge", t0 + 0.1, t0 + 0.12, 0);
    obs.on_phase_end(j, t0 + 0.2);
    obs.on_task_complete(j, dev, t0 - 0.7, t0 + 0.2, 1, 0, (j % 3) != 0);
  }
  return t;
}

TEST(AttributionAlloc, SteadyStateTaskAllocatesNothing) {
  ObsConfig cfg;
  cfg.attribution = true;
  cfg.metrics = true;
  std::vector<std::string> classes;
  for (int d = 0; d < kDevices; ++d) classes.push_back(d < 4 ? "cam" : "gate");
  RecordingObserver obs(cfg, kDevices, classes);

  double t = drive(obs, 0, 1000, 0.0);  // warm-up: reach the peak once
  const std::uint64_t allocs_before = testsupport::allocation_count();
  const std::uint64_t frees_before = testsupport::deallocation_count();
  t = drive(obs, 1000, 10000, t);
  const std::uint64_t allocs = testsupport::allocation_count() - allocs_before;
  const std::uint64_t frees = testsupport::deallocation_count() - frees_before;
  EXPECT_EQ(allocs, 0u) << "an attributed task allocated in steady state";
  EXPECT_EQ(frees, 0u) << "an attributed task freed in steady state";

  obs.on_run_end(t);
  const auto sum = obs.attribution_summary();
  EXPECT_EQ(sum.tasks + sum.incomplete, 11000u);
  EXPECT_EQ(sum.incomplete, 11u);  // one parked task per 1000
  EXPECT_GT(sum.calibrated_tasks, 0u);
  ASSERT_EQ(sum.ports.size(), static_cast<std::size_t>(kDevices + 2));
}

}  // namespace
}  // namespace leime::sim
