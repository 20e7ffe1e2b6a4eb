#include "policy/batch.h"

#include <bit>
#include <cstdint>

#include "prof/profiler.h"

namespace leime::policy {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One thread's dedup scratch, kept across calls.
struct DedupScratch {
  std::vector<std::size_t> slots;  ///< open addressing: group + 1, 0 = empty
  std::vector<std::size_t> group_of;         ///< device -> group
  std::vector<core::DeviceSlotState> reps;   ///< first member of each group
  std::vector<double> rep_x;
};

}  // namespace

bool slot_state_bits_equal(const core::DeviceSlotState& a,
                           const core::DeviceSlotState& b) {
  return a.partition == b.partition &&
         bits(a.device_flops) == bits(b.device_flops) &&
         bits(a.edge_share_flops) == bits(b.edge_share_flops) &&
         bits(a.bandwidth) == bits(b.bandwidth) &&
         bits(a.latency) == bits(b.latency) &&
         bits(a.queue_device) == bits(b.queue_device) &&
         bits(a.queue_edge) == bits(b.queue_edge) &&
         bits(a.arrivals) == bits(b.arrivals) &&
         bits(a.uplink_backlog_bytes) == bits(b.uplink_backlog_bytes) &&
         a.edge_available == b.edge_available &&
         bits(a.config.V) == bits(b.config.V) &&
         bits(a.config.tau) == bits(b.config.tau);
}

std::uint64_t slot_state_hash(const core::DeviceSlotState& s) {
  std::uint64_t h = kFnvOffset;
  h = mix(h, reinterpret_cast<std::uintptr_t>(s.partition));
  h = mix(h, bits(s.device_flops));
  h = mix(h, bits(s.edge_share_flops));
  h = mix(h, bits(s.bandwidth));
  h = mix(h, bits(s.latency));
  h = mix(h, bits(s.queue_device));
  h = mix(h, bits(s.queue_edge));
  h = mix(h, bits(s.arrivals));
  h = mix(h, bits(s.uplink_backlog_bytes));
  h = mix(h, s.edge_available ? 1u : 0u);
  h = mix(h, bits(s.config.V));
  h = mix(h, bits(s.config.tau));
  return h;
}

BatchStats decide_fleet(const core::OffloadPolicy& policy,
                        const std::vector<core::DeviceSlotState>& states,
                        std::vector<double>& out) {
  LEIME_PROF_SCOPE("leime.policy.decide_fleet");
  thread_local DedupScratch sc;
  const std::size_t n = states.size();
  out.resize(n);
  // A power-of-two table at most half full, sized from this fleet (never
  // from the scratch's capacity). A hash collision costs one extra compare,
  // never a wrong dedup.
  std::size_t mask = 15;
  while (mask < 2 * n) mask = 2 * mask + 1;
  sc.slots.assign(mask + 1, 0);
  sc.group_of.resize(n);
  sc.reps.clear();
  sc.reps.reserve(n);  // so any fleet up to this size reuses the buffers
  sc.rep_x.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t h = slot_state_hash(states[i]) & mask;
    while (sc.slots[h] != 0 &&
           !slot_state_bits_equal(sc.reps[sc.slots[h] - 1], states[i]))
      h = (h + 1) & mask;
    if (sc.slots[h] == 0) {
      sc.reps.push_back(states[i]);
      sc.slots[h] = sc.reps.size();
    }
    sc.group_of[i] = sc.slots[h] - 1;
  }
  sc.rep_x.resize(sc.reps.size());
  policy.decide_fleet(sc.reps, sc.rep_x);
  for (std::size_t i = 0; i < n; ++i) out[i] = sc.rep_x[sc.group_of[i]];
  return {sc.reps.size(), n - sc.reps.size()};
}

}  // namespace leime::policy
