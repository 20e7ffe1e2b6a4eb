// Flow-level transfer API over the routed multi-hop fabric.
//
// Fabric builds the fixed device -> AP -> edge -> cloud tree (topology.h)
// as one table of output ports on one sim::EventQueue and exposes
// transfer(src, dst, bytes, done): the flow is carried hop by hop — each
// hop queues FIFO behind every other flow sharing that output port, so a
// crowd of devices behind one access point congests the AP backhaul
// without any scripted bandwidth trace.
//
// Determinism: the fabric adds no randomness and no wall-clock reads. A
// flow's trajectory is a pure function of the event-queue order (each hop is
// one kTransferDone event), so fabric runs inherit the simulator's
// bit-determinism across runtime executor thread counts.
//
// Allocation: routes are computed from the tree on every call, flows live
// in a pooled free list and hop completions are InlineFn-backed, so the
// steady state performs no heap allocation (the pool grows only while the
// number of flows in flight reaches a new peak).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/resources.h"

namespace leime::obs {
class MetricsRegistry;
}

namespace leime::net {

/// The controller's view of one route at a time t: the bottleneck
/// bandwidth (min over hops), the total propagation latency and the total
/// queued backlog, each accumulated hop by hop in route order.
struct RouteState {
  double bandwidth = 0.0;
  double latency = 0.0;
  double backlog_bytes = 0.0;
};

/// Per-port counters, cheap enough to keep always-on. busy_time integrates
/// serialization occupancy (for utilization = busy_time / horizon);
/// peak_backlog_bytes records the high-water mark seen at admission.
struct PortStats {
  std::uint64_t transfers = 0;
  std::uint64_t drops = 0;
  double bytes = 0.0;
  double busy_time = 0.0;
  double peak_backlog_bytes = 0.0;
};

class Fabric {
 public:
  using Completion = sim::Completion;

  /// One directed tree edge: the FIFO output queue of its source node. The
  /// link does the serialization, so bandwidth/latency traces and outage
  /// windows behave exactly like the flat simulator's links.
  struct Port {
    std::string name;      ///< "<src>_<dst>", e.g. "dev3_ap0" — metric-safe
    std::uint32_t id = 0;  ///< fabric-wide port id (Fabric::port(id))
    PortStats stats;
    sim::Link link;
  };

  /// Builds the tree's ports: device i's wireless uplink
  /// `device_uplinks[i]` to its AP (config.device_map, or round-robin),
  /// every AP's backhaul from the config and the edge's cloud uplink
  /// `edge_cloud`. `duplex` adds each link's mirror (same spec) so results
  /// can be routed back down; uplink-only scenarios skip them. The config
  /// must be enabled() and validate() against device_uplinks.size(), and
  /// every spec must validate().
  Fabric(sim::EventQueue& queue, const TopologyConfig& config,
         const std::vector<LinkSpec>& device_uplinks, LinkSpec edge_cloud,
         bool duplex = false);

  // A port's link hands its own address to its pending events.
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// A dropped flow fires its completion with this time (< 0): a queue
  /// limit was exceeded at some hop. Bytes already serialized on earlier
  /// hops stay spent — the fabric does not model retransmission; callers
  /// retry at the flow level.
  static constexpr double kDropped = -1.0;

  /// Tag for flows that carry no caller identity (hop spans not reported).
  static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

  /// Per-hop span reporter: called once per completed hop of a tagged flow
  /// with the port's fabric-wide id (port(id).name is its name), when the
  /// hop was queued, when the link actually started serializing it (max of
  /// queue time and the port's busy horizon), and when it was delivered to
  /// the next node. A pure tap — it must not start transfers or otherwise
  /// feed back into the fabric.
  using HopTap = std::function<void(std::uint64_t tag, std::uint32_t port,
                                    double t_queued, double exec_start,
                                    double t_end)>;

  /// Installs (or clears, with nullptr) the hop tap. Untagged flows never
  /// report, so installing a tap does not change behavior for callers of
  /// the untagged transfer overload.
  void set_hop_tap(HopTap tap) { hop_tap_ = std::move(tap); }

  /// Routes `bytes` from src to dst hop by hop; `done` fires with the
  /// delivery time at dst, or with kDropped. src == dst completes
  /// immediately at the current time.
  void transfer(NodeId src, NodeId dst, double bytes, Completion done) {
    transfer(src, dst, bytes, kNoTag, std::move(done));
  }

  /// transfer with a caller tag (e.g. the task id): each completed hop is
  /// reported to the hop tap, so observers can attribute queueing to the
  /// specific congested port.
  void transfer(NodeId src, NodeId dst, double bytes, std::uint64_t tag,
                Completion done);

  /// The port of the one hop src -> dst: src's uplink to its parent, or
  /// (duplex only) the parent's downlink to its child dst, e.g. to attach
  /// bandwidth traces or outage windows; nullptr when there is none.
  Port* port(NodeId src, NodeId dst);

  /// Ports by fabric-wide id: dense, 0 .. num_ports() - 1, numbered by
  /// source node (devices, APs, the edge, cloud) and, within a node, its
  /// downlinks in child order before its uplink.
  std::size_t num_ports() const { return ports_.size(); }
  const Port& port(std::uint32_t id) const { return ports_[id]; }

  /// The AP device `device` is attached to.
  int ap_of(int device) const;

  /// The route-aggregate observation along src -> dst at time t.
  RouteState route_state(NodeId src, NodeId dst, double t) const;

  /// Whether every hop of src -> dst is outside its outage windows at t.
  bool route_up(NodeId src, NodeId dst, double t) const;

  struct Stats {
    std::uint64_t transfers = 0;  ///< flows started
    std::uint64_t delivered = 0;  ///< flows that reached dst
    std::uint64_t drops = 0;      ///< flows dropped at some hop
    std::uint64_t hops = 0;       ///< hop transfers admitted
    double bytes = 0.0;           ///< payload bytes across started flows
  };
  const Stats& stats() const { return stats_; }

  /// Largest backlog observed at admission on any port so far.
  double max_backlog_bytes() const;

  /// Registers/updates fabric metrics (leime_net_*): aggregate flow
  /// counters plus per-port backlog/drop/utilization for the shared
  /// (non-device) ports. `horizon` scales utilization; pass the run
  /// duration.
  void export_metrics(obs::MetricsRegistry& registry, double horizon) const;

  /// Flow-pool slots ever allocated (for zero-allocation gates: stable
  /// once the pool covers the peak number of in-flight flows).
  std::size_t flow_pool_capacity() const { return flows_.size(); }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// A non-cloud node, indexed by its slot: devices, then APs, then the
  /// edge; the cloud's slot is one past the last. A parent's slot is
  /// always greater than its child's.
  struct Node {
    int parent = 0;              ///< the parent's slot
    std::uint32_t up = 0;        ///< port id of the uplink to the parent
    std::uint32_t down = kNone;  ///< the parent's downlink here (duplex)
  };

  /// The port ids of a route's hops in order: the up-path from src to the
  /// lowest common ancestor, then the down-path to dst (device -> cloud ->
  /// device is the longest, six hops).
  struct Route {
    std::array<std::uint32_t, 6> ports{};
    int count = 0;
  };

  struct Flow {
    double bytes = 0.0;
    Completion done;
    Route route;
    int next_hop = 0;
    std::uint32_t next_free = 0;  ///< free-list link (kNone = end)
    // Hop-span state (lives in the pooled slot, not in the per-hop
    // completion capture, which must stay within kCompletionCapacity).
    std::uint64_t tag = kNoTag;
    double hop_queued = 0.0;  ///< when the current hop entered its port
    double hop_exec = 0.0;    ///< when the port's link starts serializing
  };

  /// Throws std::invalid_argument for a node outside the tree.
  int slot(NodeId node) const;
  Route route(NodeId src, NodeId dst) const;
  std::uint32_t acquire_flow();
  void release_flow(std::uint32_t id);
  void advance(std::uint32_t id, double t);

  sim::EventQueue* queue_;
  int num_devices_;
  int num_aps_;
  double queue_limit_bytes_;  ///< per port; 0 = unbounded
  /// By port id; sized once in the constructor and never grown.
  std::vector<Port> ports_;
  std::vector<Node> nodes_;  ///< by slot
  std::vector<Flow> flows_;
  std::uint32_t free_head_ = kNone;
  Stats stats_;
  HopTap hop_tap_;
};

}  // namespace leime::net
