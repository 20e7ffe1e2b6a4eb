// Batched per-device eq. 20 / drift-plus-penalty updates.
//
// Groups devices whose DeviceSlotState is bit-identical — field-wise IEEE
// bit comparison, never a raw memcmp (padding bytes are indeterminate) —
// solves one representative per group in a single policy.decide_fleet call
// and copies the group's double to every member. The policy contract
// (core::OffloadPolicy::decide_fleet returns decide() bit for bit, a pure
// function of the state) plus bit-identical inputs means every device
// receives exactly the double the sequential loop would have produced:
// equality within 0 ULP with no summation reordering anywhere, which is
// why the batched path can stay on inside golden-snapshot scenarios.
//
// The win is real for the common fleets: homogeneous device classes
// produce identical slot states whenever their queues drain to the same
// lengths (e.g. underloaded or saturated regimes), and each dedup saves a
// full golden-section solve. The index is an open-addressing table over
// per-thread scratch, so a call on a fleet no larger than an earlier one
// on the same thread allocates nothing.
#pragma once

#include <cstddef>
#include <vector>

#include "core/lyapunov.h"
#include "core/offload_policy.h"

namespace leime::policy {

/// Bit-exact equality of two slot states (partition identity by pointer —
/// conservative: distinct pointers never dedup).
bool slot_state_bits_equal(const core::DeviceSlotState& a,
                           const core::DeviceSlotState& b);

/// A multiplicative hash of the state's field bit patterns, one step per
/// field; equal states hash equal.
std::uint64_t slot_state_hash(const core::DeviceSlotState& s);

struct BatchStats {
  std::size_t groups = 0;  ///< distinct states actually solved
  std::size_t reused = 0;  ///< devices served by another device's solve
};

/// Fills out[i] with policy.decide(states[i]) for every device, solving
/// each group of bit-identical states once. out is resized to match.
/// Thread-safe: the scratch is thread_local.
BatchStats decide_fleet(const core::OffloadPolicy& policy,
                        const std::vector<core::DeviceSlotState>& states,
                        std::vector<double>& out);

}  // namespace leime::policy
