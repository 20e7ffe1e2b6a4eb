// Zero-allocation gate for the batched eq. 20 dedup (DESIGN.md §12): its
// index and representative buffers are per-thread scratch, so once a thread
// has served a fleet, a call on another fleet of the same size performs no
// heap allocation at all, however many distinct states it holds, and
// neither do the fleet solvers underneath it.
// The counters come from tests/support/alloc_hooks.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/offload_policy.h"
#include "policy/batch.h"
#include "policy/engine.h"
#include "support/alloc_hooks.h"
#include "util/rng.h"

namespace leime::policy {
namespace {

/// 300 states; every `repeat_every`-th one repeats an earlier state, as a
/// homogeneous device class would (0: all distinct).
std::vector<core::DeviceSlotState> fleet(const core::MeDnnPartition* part,
                                         util::Rng& rng, int repeat_every) {
  std::vector<core::DeviceSlotState> states;
  for (int i = 0; i < 300; ++i) {
    if (repeat_every > 0 && i % repeat_every == repeat_every - 1) {
      states.push_back(states[static_cast<std::size_t>(i) / 2]);
      continue;
    }
    core::DeviceSlotState s;
    s.partition = part;
    s.device_flops = rng.uniform(1e9, 4e10);
    s.edge_share_flops = rng.uniform(1e9, 1e11);
    s.bandwidth = rng.uniform(1e5, 2e7);
    s.latency = rng.uniform(0.001, 0.1);
    s.queue_device = rng.uniform(0.0, 20.0);
    s.queue_edge = rng.uniform(0.0, 20.0);
    s.arrivals = rng.uniform(0.0, 5.0);
    s.edge_available = rng.uniform() < 0.8;
    states.push_back(s);
  }
  return states;
}

TEST(BatchAlloc, SecondSameSizeFleetAllocatesNothing) {
  core::MeDnnPartition part;
  part.mu1 = 2e9;
  part.mu2 = 4e9;
  part.d0 = 150e3;
  part.d1 = 120e3;
  part.sigma1 = 0.4;
  util::Rng rng(0xA110Cull);
  // The first fleet has fewer distinct states than the second, so the
  // representative buffers must already be sized for the whole fleet.
  const auto first = fleet(&part, rng, 3);
  const auto second = fleet(&part, rng, 0);
  Config on;
  on.batch_eq20 = true;
  const Engine engine(on);

  for (const char* name : {"LEIME", "LEIME-balance+fallback"}) {
    const auto policy = core::make_policy(name);
    std::vector<double> out;
    decide_fleet(*policy, first, out);  // grows this thread's scratch
    const std::uint64_t before = testsupport::allocation_count();
    const BatchStats stats = decide_fleet(*policy, second, out);
    engine.decide_fleet(*policy, second, out);
    EXPECT_EQ(testsupport::allocation_count() - before, 0u) << name;
    EXPECT_EQ(stats.groups, 300u) << name;
    EXPECT_EQ(stats.reused, 0u) << name;
  }
}

}  // namespace
}  // namespace leime::policy
