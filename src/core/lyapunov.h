// Lyapunov drift-plus-penalty machinery for online offloading
// (paper §III-D, equations 8-19).
//
// Per device and per slot, given queue backlogs (Q_i, H_i) and the slot's
// arrivals, the offloading ratio x ∈ [0,1] splits first-block work between
// the device and its edge share. This header exposes the slot cost terms
// (eqs. 12-14), the drift-plus-penalty objective (eq. 19), the bandwidth
// feasibility interval (eq. 8), and two solvers: exact scalar minimisation
// and the paper's decentralized T_d = T_e balance rule (eq. 20). Each
// solver also has a fleet form that decides many devices per call and
// returns the scalar form's doubles bit for bit (DESIGN.md §12).
#pragma once

#include <optional>
#include <span>

#include "core/partition.h"

namespace leime::core {

/// Lyapunov control parameters. V trades queue backlog for delay
/// (Theorem 3's O(B/V) gap); tau is the slot length in seconds.
struct LyapunovConfig {
  double V = 50.0;
  double tau = 1.0;
};

/// Everything one device needs to choose x for one slot.
struct DeviceSlotState {
  const MeDnnPartition* partition = nullptr;  ///< ME-DNN deployed on the fleet
  double device_flops = 0.0;       ///< F_i^d
  double edge_share_flops = 0.0;   ///< p_i * F^e
  double bandwidth = 0.0;          ///< B_i^e, bytes/s
  double latency = 0.0;            ///< L_i^e, seconds
  double queue_device = 0.0;       ///< Q_i(t), tasks
  double queue_edge = 0.0;         ///< H_i(t), tasks
  double arrivals = 0.0;           ///< M_i(t), tasks this slot
  /// Bytes already accepted by the uplink but not yet serialized. The
  /// eq. 8 budget is reduced by this backlog so consecutive slots cannot
  /// oversubscribe the link (a runtime refinement over the paper's
  /// memoryless per-slot constraint).
  double uplink_backlog_bytes = 0.0;
  /// False while the edge tier is unreachable for this device (edge server
  /// crashed or uplink in outage; fed by the fault layer, sim/faults.h).
  /// Policies wrapped with FallbackPolicy degrade to x = 0 when false.
  bool edge_available = true;
  LyapunovConfig config;

  /// Throws std::invalid_argument naming the offending field on a
  /// non-finite value, a non-positive FLOPS/bandwidth/tau, a negative
  /// latency/queue/arrivals/backlog/V, or tau <= latency.
  void validate() const;
};

/// F_{i,1}^e (eq. 9): the fraction of the device's edge share serving
/// first-block tasks, given offloading ratio x. Zero when x == 0.
double edge_first_block_flops(const DeviceSlotState& s, double x);

/// Device service rate b_i = F_i^d * tau / mu1 (tasks per slot).
double device_service_tasks(const DeviceSlotState& s);

/// Edge service rate c_i(x) = F_{i,1}^e * tau / mu1 (tasks per slot).
double edge_service_tasks(const DeviceSlotState& s, double x);

/// T_i^d(t) (eq. 12): waiting + processing + forwarding cost of the tasks
/// kept on the device this slot.
double device_slot_cost(const DeviceSlotState& s, double x);

/// T_i^e(t) (eq. 13): upload + waiting + processing cost of the tasks
/// offloaded this slot.
double edge_slot_cost(const DeviceSlotState& s, double x);

/// Y_i(t) = T_i^d + T_i^e (eq. 14).
double slot_cost(const DeviceSlotState& s, double x);

/// Drift-plus-penalty objective (eq. 19):
/// V·Y_i + Q_i·(A_i − b_i) + H_i·(D_i − c_i).
double drift_plus_penalty(const DeviceSlotState& s, double x);

/// The x-interval satisfying the uplink budget (eq. 8):
/// D·d0 + A·(1−σ1)·d1 <= B·(τ − L), intersected with [0,1]. When even the
/// least-demanding x violates the budget, returns the degenerate interval
/// at that x (the controller then least-violates).
struct Interval {
  double lo = 0.0;
  double hi = 1.0;
};
Interval feasible_offload_interval(const DeviceSlotState& s);

/// Exact per-slot decision: minimises drift_plus_penalty over the feasible
/// interval (coarse grid + golden-section refinement; robust to the
/// objective's piecewise form).
double minimize_drift_plus_penalty(const DeviceSlotState& s);

/// The paper's decentralized rule: the x equalising T_i^d(x) = T_i^e(x)
/// (eq. 20's equality condition), clipped to the feasible interval.
/// Falls back to the interval endpoint when no crossing exists.
double balance_offload_ratio(const DeviceSlotState& s);

/// Eq. 19 on (0, hi] in closed form, for a state with σ1 < 1 whose
/// feasible interval is [0, hi], hi > 0. There the objective is convex, and
/// at x = 0+ it jumps up by the limit of eq. 13's terms (DESIGN.md §12).
/// The slopes restate eqs. 12-13 as device_slot_cost and edge_slot_cost
/// compute them.
struct ObjectiveShape {
  double slope_lo = 0.0;     ///< s0: the right slope at 0+
  double slope_hi = 0.0;     ///< s1: the left slope at hi
  double jump = 0.0;         ///< J: lim f(x) − f(0) as x → 0+
  double terms = 0.0;        ///< E: bounds eq. 19's absolute terms on [0, hi]
  double slope_terms = 0.0;  ///< the sum of s0's and s1's absolute terms
};
ObjectiveShape objective_shape(const DeviceSlotState& s, double hi);

/// The fleet form's pre-pass: for a validated state and its
/// feasible_offload_interval iv with iv.hi > iv.lo, returns iv.lo or iv.hi
/// when a bound with rounding margins on objective_shape proves that
/// minimize_drift_plus_penalty(s) returns exactly that value, and nothing
/// otherwise (DESIGN.md §12). Never throws.
std::optional<double> certified_endpoint(const DeviceSlotState& s,
                                         const Interval& iv);

/// Devices the fleet forms below solve in lockstep.
inline constexpr int kFleetLanes = 8;

/// Fleet forms: out[i] = minimize_drift_plus_penalty(states[i]) (resp.
/// balance_offload_ratio) bit for bit. The eq. 19 form answers each state
/// certified_endpoint certifies; the rest are solved kFleetLanes at a time
/// in lockstep, which overlaps their dependent refinement probes.
/// Validation and the solver's internal checks throw the exception type
/// the scalar loop over `states` would; `out` must be as long as `states`.
void minimize_drift_plus_penalty_fleet(std::span<const DeviceSlotState> states,
                                       std::span<double> out);
void balance_offload_ratio_fleet(std::span<const DeviceSlotState> states,
                                 std::span<double> out);

}  // namespace leime::core
