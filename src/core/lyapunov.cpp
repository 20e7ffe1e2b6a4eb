#include "core/lyapunov.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace leime::core {

namespace {

/// Throws std::invalid_argument naming `field` unless v is finite and
/// positive (or, when !strict, non-negative).
void require_finite(double v, const char* field, bool strict) {
  if (std::isfinite(v) && (strict ? v > 0.0 : v >= 0.0)) return;
  throw std::invalid_argument(std::string("DeviceSlotState: ") + field +
                              (strict ? " must be finite and > 0"
                                      : " must be finite and >= 0") +
                              " (got " + std::to_string(v) + ")");
}

}  // namespace

void DeviceSlotState::validate() const {
  if (partition == nullptr)
    throw std::invalid_argument("DeviceSlotState: null partition");
  require_finite(device_flops, "device_flops", true);
  require_finite(edge_share_flops, "edge_share_flops", true);
  require_finite(bandwidth, "bandwidth", true);
  require_finite(latency, "latency", false);
  require_finite(queue_device, "queue_device", false);
  require_finite(queue_edge, "queue_edge", false);
  require_finite(arrivals, "arrivals", false);
  require_finite(uplink_backlog_bytes, "uplink_backlog_bytes", false);
  require_finite(config.V, "V", false);
  require_finite(config.tau, "tau", true);
  if (config.tau <= latency)
    throw std::invalid_argument(
        "DeviceSlotState: slot shorter than link latency");
}

double edge_first_block_flops(const DeviceSlotState& s, double x) {
  const auto& p = *s.partition;
  const double denom = x * p.mu1 + (1.0 - p.sigma1) * p.mu2;
  if (denom <= 0.0) return 0.0;  // x == 0 and nothing survives to block 2
  return x * p.mu1 * s.edge_share_flops / denom;
}

double device_service_tasks(const DeviceSlotState& s) {
  return s.device_flops * s.config.tau / s.partition->mu1;
}

double edge_service_tasks(const DeviceSlotState& s, double x) {
  return edge_first_block_flops(s, x) * s.config.tau / s.partition->mu1;
}

double device_slot_cost(const DeviceSlotState& s, double x) {
  const auto& p = *s.partition;
  const double a = (1.0 - x) * s.arrivals;  // A_i(t)
  if (a <= 0.0) return 0.0;
  const double per_task = p.mu1 / s.device_flops;
  // C_{i,1}^d: drain the backlog first.
  const double wait_backlog = a * s.queue_device * per_task;
  // C_{i,2}^d: own processing + intra-slot queueing of this slot's batch.
  const double process = a * per_task + 0.5 * a * (a - 1.0) * per_task;
  // C_{i,3}^d: survivors of the First-exit upload their intermediate tensor.
  const double forward =
      (1.0 - p.sigma1) * a * (p.d1 / s.bandwidth + s.latency);
  return wait_backlog + std::max(process, a * per_task) + forward;
}

double edge_slot_cost(const DeviceSlotState& s, double x) {
  const auto& p = *s.partition;
  const double d = x * s.arrivals;  // D_i(t)
  if (d <= 0.0) return 0.0;
  const double f_e1 = edge_first_block_flops(s, x);
  LEIME_CHECK(f_e1 > 0.0);
  const double per_task = p.mu1 / f_e1;
  // C_{i,1}^e: raw inputs cross the uplink.
  const double upload = d * (p.d0 / s.bandwidth + s.latency);
  // C_{i,2}^e: drain this device's edge backlog.
  const double wait_backlog = d * s.queue_edge * per_task;
  // C_{i,3}^e: processing + intra-slot queueing.
  const double process = d * per_task + 0.5 * d * (d - 1.0) * per_task;
  return upload + wait_backlog + std::max(process, d * per_task);
}

double slot_cost(const DeviceSlotState& s, double x) {
  return device_slot_cost(s, x) + edge_slot_cost(s, x);
}

double drift_plus_penalty(const DeviceSlotState& s, double x) {
  const double a = (1.0 - x) * s.arrivals;
  const double d = x * s.arrivals;
  return s.config.V * slot_cost(s, x) +
         s.queue_device * (a - device_service_tasks(s)) +
         s.queue_edge * (d - edge_service_tasks(s, x));
}

Interval feasible_offload_interval(const DeviceSlotState& s) {
  const auto& p = *s.partition;
  if (s.arrivals <= 0.0) return {0.0, 1.0};
  // Eq. 8: x·M·d0 + (1−x)·M·(1−σ1)·d1 <= B(τ − L), with the budget reduced
  // by bytes the uplink still owes from previous slots.
  const double budget = std::max(
      0.0, s.bandwidth * (s.config.tau - s.latency) - s.uplink_backlog_bytes);
  const double base = s.arrivals * (1.0 - p.sigma1) * p.d1;   // x = 0 usage
  const double slope = s.arrivals * (p.d0 - (1.0 - p.sigma1) * p.d1);
  if (slope > 0.0) {
    // Offloading raw inputs costs more than forwarding survivors: cap x.
    const double hi = (budget - base) / slope;
    if (hi <= 0.0) return {0.0, 0.0};  // least-violating endpoint
    return {0.0, std::min(1.0, hi)};
  }
  if (slope < 0.0) {
    // Raw inputs are cheaper than intermediate tensors: floor x.
    const double lo = (budget - base) / slope;  // slope < 0 flips direction
    if (lo >= 1.0) return {1.0, 1.0};
    return {std::max(0.0, lo), 1.0};
  }
  return {0.0, 1.0};
}

// Solver constants shared by the scalar and fleet forms.
constexpr int kGrid = 64;                      // coarse grid intervals
constexpr double kPhi = 0.6180339887498949;    // golden-section ratio
constexpr int kGoldenIters = 48;
constexpr int kBisectIters = 60;
constexpr double kTol = 1e-9;                  // refinement bracket width

double minimize_drift_plus_penalty(const DeviceSlotState& s) {
  s.validate();
  const Interval iv = feasible_offload_interval(s);
  if (iv.hi <= iv.lo) return iv.lo;

  // Coarse grid to bracket the global minimum of the piecewise objective.
  double best_x = iv.lo;
  double best_v = std::numeric_limits<double>::infinity();
  for (int g = 0; g <= kGrid; ++g) {
    const double x = iv.lo + (iv.hi - iv.lo) * g / kGrid;
    const double v = drift_plus_penalty(s, x);
    if (v < best_v) {
      best_v = v;
      best_x = x;
    }
  }
  // Golden-section refinement around the bracketing neighbours.
  const double step = (iv.hi - iv.lo) / kGrid;
  double lo = std::max(iv.lo, best_x - step);
  double hi = std::min(iv.hi, best_x + step);
  for (int it = 0; it < kGoldenIters && hi - lo > kTol; ++it) {
    const double x1 = hi - kPhi * (hi - lo);
    const double x2 = lo + kPhi * (hi - lo);
    if (drift_plus_penalty(s, x1) <= drift_plus_penalty(s, x2))
      hi = x2;
    else
      lo = x1;
  }
  const double refined = 0.5 * (lo + hi);
  return drift_plus_penalty(s, refined) < best_v ? refined : best_x;
}

double balance_offload_ratio(const DeviceSlotState& s) {
  s.validate();
  const Interval iv = feasible_offload_interval(s);
  if (iv.hi <= iv.lo) return iv.lo;
  auto gap = [&](double x) {
    return device_slot_cost(s, x) - edge_slot_cost(s, x);
  };
  // T_d decreases and T_e increases with x, so the gap is decreasing; find
  // its zero by bisection.
  double lo = iv.lo;
  double hi = iv.hi;
  const double g_lo = gap(lo);
  const double g_hi = gap(hi);
  if (g_lo <= 0.0) return lo;  // device side already cheaper everywhere
  if (g_hi >= 0.0) return hi;  // edge side cheaper even at full offload
  for (int it = 0; it < kBisectIters && hi - lo > kTol; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (gap(mid) > 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

// ------------------------------------------------------------ fleet forms
//
// Bit identity with the scalar forms (DESIGN.md §12): the same IEEE
// operations on the same operands in the same order, each early return as a
// select under the scalar comparison (so NaN takes the same side), no lane
// ever reading another, and -ffp-contract=off pinned in src/CMakeLists.txt.

namespace {

/// Two doubles in one SIMD register, through the GCC/Clang generic vector
/// extension (SSE2 and NEON width, so no target flag is needed). Arithmetic
/// is element-wise IEEE, and `cmp ? a : b` on a vector comparison selects per
/// element without a branch. Plain scalar code does not get there: under the
/// default -ftrapping-math GCC will not if-convert a select whose arm holds a
/// division, and code sinking moves the division into the arm.
using Vec = double __attribute__((vector_size(2 * sizeof(double))));
constexpr int kWidth = 2;  // devices per Vec
constexpr int kLanes = kFleetLanes;
constexpr int kVecs = kLanes / kWidth;
static_assert(kLanes % kWidth == 0);

/// The prepared eq. 19 objective of kWidth devices, built once per state:
/// the invariants the scalar path recomputes on every probe.
struct Objective {
  Vec arrivals;       // M_i(t)
  Vec queue_device;   // Q_i(t)
  Vec queue_edge;     // H_i(t)
  Vec V;
  Vec tau;
  Vec mu1;
  Vec edge_flops;     // p_i F^e
  Vec survive;        // 1 − σ1
  Vec survive_mu2;    // (1 − σ1)·μ2
  Vec device_task_s;  // μ1/F_i^d
  Vec upload_s;       // d0/B + L
  Vec forward_s;      // d1/B + L
  Vec device_rate;    // b_i = F_i^d·τ/μ1
  Vec lo;             // feasible interval (eq. 8)
  Vec hi;
};

void prepare(Objective& o, int j, const DeviceSlotState& s,
             const Interval& iv) {
  const auto& q = *s.partition;
  o.arrivals[j] = s.arrivals;
  o.queue_device[j] = s.queue_device;
  o.queue_edge[j] = s.queue_edge;
  o.V[j] = s.config.V;
  o.tau[j] = s.config.tau;
  o.mu1[j] = q.mu1;
  o.edge_flops[j] = s.edge_share_flops;
  o.survive[j] = 1.0 - q.sigma1;
  o.survive_mu2[j] = (1.0 - q.sigma1) * q.mu2;
  o.device_task_s[j] = q.mu1 / s.device_flops;
  o.upload_s[j] = q.d0 / s.bandwidth + s.latency;
  o.forward_s[j] = q.d1 / s.bandwidth + s.latency;
  o.device_rate[j] = s.device_flops * s.config.tau / q.mu1;
  o.lo[j] = iv.lo;
  o.hi[j] = iv.hi;
}

constexpr Vec kZero = {0.0, 0.0};
constexpr Vec kOne = {1.0, 1.0};
constexpr Vec kTolVec = {kTol, kTol};

/// One probe at ratio x: eqs. 9, 12 and 13 exactly as edge_first_block_flops,
/// device_slot_cost and edge_slot_cost compute them.
struct Probe {
  Vec device;  // T_i^d
  Vec edge;    // T_i^e
  Vec f_e1;    // F_{i,1}^e
  Vec failed;  // 1 where the scalar LEIME_CHECK(f_e1 > 0.0) would throw
};

inline Probe probe(const Objective& o, Vec x) {
  const Vec a = (1.0 - x) * o.arrivals;
  const Vec d = x * o.arrivals;
  const Vec denom = x * o.mu1 + o.survive_mu2;
  const Vec f_any = x * o.mu1 * o.edge_flops / denom;
  const Vec f_e1 = denom <= kZero ? kZero : f_any;
  const Vec dt = o.device_task_s;
  const Vec d_task = a * dt;
  const Vec d_process = a * dt + 0.5 * a * (a - 1.0) * dt;
  const Vec device = a * o.queue_device * dt +
                     (d_process < d_task ? d_task : d_process) +
                     o.survive * a * o.forward_s;
  const Vec et = o.mu1 / f_e1;
  const Vec e_task = d * et;
  const Vec e_process = d * et + 0.5 * d * (d - 1.0) * et;
  const Vec edge = d * o.upload_s + d * o.queue_edge * et +
                   (e_process < e_task ? e_task : e_process);
  return {a <= kZero ? kZero : device, d <= kZero ? kZero : edge, f_e1,
          d <= kZero ? kZero : (f_e1 > kZero ? kZero : kOne)};
}

/// drift_plus_penalty (eq. 19) at x, from that x's probe.
inline Vec objective(const Objective& o, Vec x, const Probe& c) {
  const Vec a = (1.0 - x) * o.arrivals;
  const Vec d = x * o.arrivals;
  return o.V * (c.device + c.edge) + o.queue_device * (a - o.device_rate) +
         o.queue_edge * (d - c.f_e1 * o.tau / o.mu1);
}

/// True while any lane of the first `vecs` Vecs has `live` > 0.
bool any_live(const Vec* live, int vecs) {
  bool any = false;
  for (int k = 0; k < vecs; ++k)
    for (int j = 0; j < kWidth; ++j) any = any || live[k][j] > 0.0;
  return any;
}

/// minimize_drift_plus_penalty on the first `vecs` Vecs of g. failed[k] is
/// nonzero in each lane where a probe the scalar path evaluates fails its
/// check.
void golden_lanes(const Objective* g, int vecs, Vec* out, Vec* failed) {
  Vec best_x[kVecs];
  Vec best_v[kVecs];
  for (int k = 0; k < vecs; ++k) {
    best_x[k] = g[k].lo;
    best_v[k] = kZero + std::numeric_limits<double>::infinity();
    failed[k] = kZero;
  }
  for (int i = 0; i <= kGrid; ++i) {
    for (int k = 0; k < vecs; ++k) {
      const Vec x = g[k].lo + (g[k].hi - g[k].lo) * static_cast<double>(i) /
                                  static_cast<double>(kGrid);
      const Probe c = probe(g[k], x);
      const Vec v = objective(g[k], x, c);
      best_x[k] = v < best_v[k] ? x : best_x[k];
      best_v[k] = v < best_v[k] ? v : best_v[k];
      failed[k] += c.failed;
    }
  }
  Vec lo[kVecs];
  Vec hi[kVecs];
  Vec live[kVecs];
  for (int k = 0; k < vecs; ++k) {
    const Vec step = (g[k].hi - g[k].lo) / static_cast<double>(kGrid);
    const Vec below = best_x[k] - step;
    const Vec above = best_x[k] + step;
    lo[k] = g[k].lo < below ? below : g[k].lo;  // std::max
    hi[k] = above < g[k].hi ? above : g[k].hi;  // std::min
    live[k] = hi[k] - lo[k] > kTolVec ? kOne : kZero;
  }
  // A lane leaves the loop when its scalar loop would: its bracket then
  // stays put and its later probes count for nothing.
  for (int it = 0; it < kGoldenIters && any_live(live, vecs); ++it) {
    for (int k = 0; k < vecs; ++k) {
      const Vec x1 = hi[k] - kPhi * (hi[k] - lo[k]);
      const Vec x2 = lo[k] + kPhi * (hi[k] - lo[k]);
      const Probe c1 = probe(g[k], x1);
      const Probe c2 = probe(g[k], x2);
      const Vec v1 = objective(g[k], x1, c1);
      const Vec v2 = objective(g[k], x2, c2);
      hi[k] = live[k] > kZero ? (v1 <= v2 ? x2 : hi[k]) : hi[k];
      lo[k] = live[k] > kZero ? (v1 <= v2 ? lo[k] : x1) : lo[k];
      failed[k] += live[k] * (c1.failed + c2.failed);
      live[k] = hi[k] - lo[k] > kTolVec ? kOne : kZero;
    }
  }
  for (int k = 0; k < vecs; ++k) {
    const Vec refined = 0.5 * (lo[k] + hi[k]);
    const Probe c = probe(g[k], refined);
    out[k] = objective(g[k], refined, c) < best_v[k] ? refined : best_x[k];
    failed[k] += c.failed;
  }
}

/// balance_offload_ratio on the first `vecs` Vecs of g; failed as above.
void bisect_lanes(const Objective* g, int vecs, Vec* out, Vec* failed) {
  Vec lo[kVecs];
  Vec hi[kVecs];
  Vec open[kVecs];  // 1 where neither endpoint answers: the scalar bisects
  Vec live[kVecs];
  for (int k = 0; k < vecs; ++k) {
    lo[k] = g[k].lo;
    hi[k] = g[k].hi;
    const Probe c_lo = probe(g[k], lo[k]);
    const Probe c_hi = probe(g[k], hi[k]);
    const Vec g_lo = c_lo.device - c_lo.edge;
    const Vec g_hi = c_hi.device - c_hi.edge;
    out[k] = g_lo <= kZero ? lo[k] : hi[k];
    open[k] = g_lo <= kZero ? kZero : (g_hi >= kZero ? kZero : kOne);
    failed[k] = c_lo.failed + c_hi.failed;
    live[k] = hi[k] - lo[k] > kTolVec ? open[k] : kZero;
  }
  for (int it = 0; it < kBisectIters && any_live(live, vecs); ++it) {
    for (int k = 0; k < vecs; ++k) {
      const Vec mid = 0.5 * (lo[k] + hi[k]);
      const Probe c = probe(g[k], mid);
      const Vec gap = c.device - c.edge;
      lo[k] = live[k] > kZero ? (gap > kZero ? mid : lo[k]) : lo[k];
      hi[k] = live[k] > kZero ? (gap > kZero ? hi[k] : mid) : hi[k];
      failed[k] += live[k] * c.failed;
      live[k] = hi[k] - lo[k] > kTolVec ? live[k] : kZero;
    }
  }
  for (int k = 0; k < vecs; ++k)
    out[k] = open[k] > kZero ? 0.5 * (lo[k] + hi[k]) : out[k];
}

/// The fleet driver: validates and screens each state in order as the
/// scalar form does, then solves the non-degenerate ones kLanes at a time.
/// A short group pads its last Vec with its last device.
using SolveLanes = void (*)(const Objective*, int, Vec*, Vec*);

void solve_fleet(std::span<const DeviceSlotState> states,
                 std::span<double> out, SolveLanes solve_lanes) {
  if (out.size() != states.size())
    throw std::invalid_argument("fleet solver: out and states differ in size");
  const DeviceSlotState* src[kLanes];
  Interval iv[kLanes];
  std::size_t at[kLanes];
  int n = 0;
  const auto flush = [&] {
    if (n == 0) return;
    const int vecs = (n + kWidth - 1) / kWidth;
    Objective g[kVecs];
    for (int l = 0; l < vecs * kWidth; ++l) {
      const int m = std::min(l, n - 1);
      prepare(g[l / kWidth], l % kWidth, *src[m], iv[m]);
    }
    Vec x[kVecs];
    Vec failed[kVecs];
    solve_lanes(g, vecs, x, failed);
    for (int l = 0; l < n; ++l) {
      LEIME_CHECK_MSG(failed[l / kWidth][l % kWidth] == 0.0,
                      "f_e1 > 0.0 on a probe that offloads");
      out[at[l]] = x[l / kWidth][l % kWidth];
    }
    n = 0;
  };
  for (std::size_t i = 0; i < states.size(); ++i) {
    const DeviceSlotState& s = states[i];
    try {
      s.validate();
    } catch (...) {
      flush();  // earlier devices throw first, as in the scalar loop
      throw;
    }
    const Interval v = feasible_offload_interval(s);
    if (v.hi <= v.lo) {
      out[i] = v.lo;
      continue;
    }
    src[n] = &s;
    iv[n] = v;
    at[n] = i;
    if (++n == kLanes) flush();
  }
  flush();
}

}  // namespace

void minimize_drift_plus_penalty_fleet(std::span<const DeviceSlotState> states,
                                       std::span<double> out) {
  solve_fleet(states, out, golden_lanes);
}

void balance_offload_ratio_fleet(std::span<const DeviceSlotState> states,
                                 std::span<double> out) {
  solve_fleet(states, out, bisect_lanes);
}

}  // namespace leime::core
