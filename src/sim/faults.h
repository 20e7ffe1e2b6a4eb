// Fault injection for the discrete-event simulator ("in the wild"
// robustness: §IV's COMCAST shaping only varies bandwidth/latency; real
// fleets also see link outages, edge-server crashes and device churn).
//
// A FaultPlan describes fault *sources* (scheduled windows plus stochastic
// rates) and the graceful-degradation knobs the runtime uses to survive
// them. Before a run starts, the plan is materialized into a FaultTimeline:
// every stochastic onset/duration is sampled up front from a dedicated Rng
// substream, so the whole fault schedule is a deterministic function of the
// scenario seed and link transfer times can be computed eagerly around the
// known down-windows. An empty plan injects nothing and leaves the
// simulation bit-identical to a fault-layer-free run.
//
// Fault semantics (implemented in sim/simulation.cpp):
//  * link outage   — the device's uplink stops serializing for the window;
//                    queued bytes are held, not lost, and drain on recovery;
//  * edge crash    — all edge shares lose their queued work; each resident
//                    task is failed back to its device after
//                    detection_timeout (block-1 work re-runs locally;
//                    block-2 work waits for the restart on an exponential
//                    probe schedule, or parks forever if the edge never
//                    returns);
//  * device churn  — a device leaves (stops generating tasks) and possibly
//                    rejoins later; each event re-runs the eq. 27 KKT edge
//                    allocation over the devices actually present.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ini.h"
#include "util/rng.h"

namespace leime::sim {

/// One fault window [start, end). `device` scopes link outages (-1 = every
/// device); it is ignored for edge windows. An infinite end means the fault
/// never clears (edge windows only: "the edge never restarts").
struct FaultWindow {
  double start = 0.0;
  double end = 0.0;
  int device = -1;

  friend bool operator==(const FaultWindow&, const FaultWindow&) = default;
};

/// Uplink outages: scheduled windows and/or a Poisson process of onsets
/// (per device, `rate` onsets/s) with exponential durations.
struct LinkOutageConfig {
  std::vector<FaultWindow> windows;
  double rate = 0.0;
  double mean_duration = 2.0;

  friend bool operator==(const LinkOutageConfig&,
                         const LinkOutageConfig&) = default;
};

/// Edge-server crashes: scheduled down-windows and/or a Poisson crash
/// process with exponential downtimes. Windows may be open-ended.
struct EdgeCrashConfig {
  std::vector<FaultWindow> windows;
  double rate = 0.0;
  double mean_downtime = 5.0;

  friend bool operator==(const EdgeCrashConfig&,
                         const EdgeCrashConfig&) = default;
};

/// One device leaving the fleet at `leave` and rejoining at `rejoin`
/// (rejoin < 0: it never comes back).
struct ChurnEvent {
  int device = 0;
  double leave = 0.0;
  double rejoin = -1.0;

  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

struct ChurnConfig {
  std::vector<ChurnEvent> events;

  friend bool operator==(const ChurnConfig&, const ChurnConfig&) = default;
};

/// Graceful-degradation knobs (how the runtime reacts to faults).
struct DegradationConfig {
  /// Seconds until a dead edge is noticed and a resident task fails back.
  double detection_timeout = 0.5;
  /// When > 0, an offloaded task not yet deep in the pipeline is retried
  /// after this many seconds (bounded by max_retries, then it runs
  /// device-side). 0 disables timeouts.
  double task_timeout = 0.0;
  int max_retries = 2;
  /// Backoff before retry r is retry_backoff * 2^(r-1) seconds.
  double retry_backoff = 0.25;
  /// Base interval of the exponential probe schedule a failed-over task
  /// uses while waiting for the edge to return.
  double probe_period = 1.0;

  friend bool operator==(const DegradationConfig&,
                         const DegradationConfig&) = default;
};

/// The full fault description carried by sim::ScenarioConfig.
struct FaultPlan {
  LinkOutageConfig link;
  EdgeCrashConfig edge;
  ChurnConfig churn;
  DegradationConfig degradation;

  /// Access-point outages (topology mode only): scheduled windows during
  /// which one router's backhaul holds its queued bytes. The window's
  /// `device` field scopes the AP index (-1 = every AP); the AP count is
  /// only known to the simulation, which range-checks at build time.
  std::vector<FaultWindow> ap_windows;

  /// True when any fault source is configured (degradation knobs alone do
  /// not count: task_timeout engages independently).
  bool enabled() const;

  /// Throws std::invalid_argument with an actionable message on negative
  /// rates, inverted windows, out-of-range churn devices, etc.
  void validate(std::size_t num_devices) const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// The plan with every stochastic draw resolved: per-device link
/// down-windows, edge down-windows (each sorted and disjoint) and the churn
/// schedule. Deterministic for a fixed (plan, num_devices, horizon, rng
/// seed).
struct FaultTimeline {
  std::vector<std::vector<FaultWindow>> link_down;  ///< per device
  std::vector<FaultWindow> edge_down;
  std::vector<ChurnEvent> churn;  ///< sorted by leave time
  /// AP outage windows, still scoped by the window's device field (= AP
  /// index, -1 = all); the simulation groups them per AP once it knows the
  /// topology. Scheduled-only: no stochastic AP source.
  std::vector<FaultWindow> ap_down;

  std::size_t link_outage_count() const;
  bool edge_up_at(double t) const;
  /// First time >= t at which the edge is up; +inf when it never returns.
  double next_edge_up(double t) const;
};

/// Sorts windows and merges overlapping/touching ones (device field is
/// ignored: call per lane).
std::vector<FaultWindow> merge_windows(std::vector<FaultWindow> windows);

/// True when t lies inside one of the (sorted, disjoint) windows.
bool down_at(const std::vector<FaultWindow>& windows, double t);

/// Samples all stochastic onsets/durations over [0, horizon) and merges
/// them with the scheduled windows. Draw order is fixed (link outages for
/// device 0..n-1, then edge crashes), so equal rng seeds give equal
/// timelines.
FaultTimeline materialize_faults(const FaultPlan& plan,
                                 std::size_t num_devices, double horizon,
                                 util::Rng& rng);

/// Parses a `[faults]` INI section (see docs/TUTORIAL.md for the key
/// reference). Unknown keys, negative rates and inverted windows throw
/// std::invalid_argument with the offending key named. Validation against
/// the device count happens later in FaultPlan::validate.
FaultPlan parse_faults_section(const util::IniSection& section);

}  // namespace leime::sim
