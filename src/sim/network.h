// The simulator's network: everything that depends on the network mode.
//
// LEIME's controller sees the network only through the eq. 5-8 terms
// (bandwidth, propagation latency, uplink backlog), and the task step
// machine (DESIGN.md §16) only moves payloads between tiers. Network
// answers both for the three modes: flat per-device links (plus the
// edge-cloud and result links), one shared AP that every upload crosses
// with the device's own latency on top (shared_uplink_bw), or the routed
// net::Fabric ([topology]). In a shard of a sharded run (DESIGN.md §15) the
// edge -> cloud leg is the shard's hub outbox.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "net/fabric.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/observer.h"
#include "sim/resources.h"
#include "sim/scenario.h"
#include "sim/shard.h"

namespace leime::sim {

/// Where a pipeline step runs; a transfer leg moves between two tiers.
/// These are the fabric's node tiers (no step runs on an AP).
using Tier = net::Tier;

class Network {
 public:
  /// Checks the config's network mode and builds the links of the owned
  /// devices [lo, hi). A non-null `outbox` makes this a shard's network:
  /// edge -> cloud legs are recorded there instead of sent.
  Network(EventQueue& queue, const ScenarioConfig& cfg, std::size_t lo,
          std::size_t hi, std::vector<HubRequest>* outbox);

  /// Gives the links a fault timeline's link and AP outage windows.
  void apply_faults(const FaultTimeline& timeline);

  /// Whether device i's path to the edge is outside every outage window
  /// at t.
  bool link_up(std::size_t i, double t) const;

  /// The eq. 8 observation of device i's path to the edge at t: its own
  /// link (or the shared AP), or the route aggregates of the fabric.
  net::RouteState observe(std::size_t i, double t) const;

  /// One transfer leg of device i, resolved: the trace track and busy
  /// horizon its observer phase opens with, and what send() needs.
  struct Leg {
    Tier from = Tier::kDevice;
    Tier to = Tier::kEdge;
    std::size_t device = 0;
    Link* link = nullptr;  ///< flat link; nullptr = fabric flow or outbox
    std::string_view track;
    double busy = 0.0;
  };
  Leg leg(Tier from, Tier to, std::size_t i);

  /// Sends `bytes` over the leg, tagged with the task's (id, attempt).
  /// `done` fires with the delivery time, or net::Fabric::kDropped; a hub
  /// outbox never fires it (the coordinator injects the delivery).
  void send(const Leg& leg, double bytes, std::size_t task, int attempt,
            Completion done);

  /// True when a result returned by the cloud lands at the edge (the flat
  /// cloud-return link), so the edge -> device return follows. The fabric
  /// routes cloud -> device as one flow.
  bool cloud_return_lands_at_edge() const { return cloud_return_.has_value(); }

  /// Reports each completed fabric hop to `obs` while `alive(task,
  /// attempt)` holds: hops of an attempt that a failover or retry abandoned
  /// are dropped. A no-op on flat links.
  template <class Alive>
  void tap_hops(Observer& obs, Alive alive) {
    if (!fabric_) return;
    fabric_->set_hop_tap([&obs, alive](std::uint64_t tag, std::uint32_t port,
                                       double t_queued, double exec_start,
                                       double t_end) {
      const std::size_t task = flow_task(tag);
      if (!alive(task, flow_attempt(tag))) return;
      obs.on_net_hop(task, port, t_queued, exec_start, t_end);
    });
  }

  /// Hands the fabric to Observer::on_net_fabric at the end of the run; a
  /// no-op on flat links.
  void report(Observer& obs, double t) const;

  /// Fabric counters for SimResult::net (inactive on flat links).
  SimResult::NetStats stats() const;

 private:
  /// Fabric flow tags pack (attempt, task id) so the hop tap can filter
  /// spans of abandoned paths: attempts stay small (bounded retries), task
  /// ids stay far below 2^48 for any feasible run length.
  static std::uint64_t flow_tag(std::size_t task, int attempt) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(attempt))
            << 48) |
           static_cast<std::uint64_t>(task);
  }
  static std::size_t flow_task(std::uint64_t tag) {
    return static_cast<std::size_t>(tag & ((std::uint64_t{1} << 48) - 1));
  }
  static int flow_attempt(std::uint64_t tag) {
    return static_cast<int>(tag >> 48);
  }

  static net::NodeId node(Tier tier, std::size_t i) {
    return {tier, tier == Tier::kDevice ? static_cast<int>(i) : 0};
  }
  std::size_t ap_of(std::size_t i) const;

  /// The flat upload link of device i: its own uplink, or the shared AP
  /// with the device's propagation latency added per transfer.
  const Link& tx(std::size_t i) const {
    return shared_ap_ ? *shared_ap_ : uplinks_[i - lo_];
  }
  Link& tx(std::size_t i) {
    return shared_ap_ ? *shared_ap_ : uplinks_[i - lo_];
  }
  double tx_extra_latency(std::size_t i) const {
    return shared_ap_ ? cfg_.devices[i].uplink_lat : 0.0;
  }

  EventQueue& queue_;
  const ScenarioConfig& cfg_;
  std::size_t lo_;
  std::size_t hi_;
  std::vector<HubRequest>* outbox_;
  std::unique_ptr<net::Fabric> fabric_;  ///< topology mode; else nullptr
  // Flat modes. The per-device links cover [lo_, hi_), indexed i - lo_.
  std::vector<Link> uplinks_;    ///< empty in the shared-AP mode
  std::vector<Link> downlinks_;  ///< only when result_bytes > 0
  std::optional<Link> shared_ap_;
  std::optional<Link> edge_cloud_;    ///< absent in a shard (the outbox)
  std::optional<Link> cloud_return_;  ///< only when result_bytes > 0
};

}  // namespace leime::sim
