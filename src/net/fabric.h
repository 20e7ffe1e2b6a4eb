// Flow-level transfer API over the routed multi-hop fabric.
//
// Fabric instantiates a Topology into per-node Routers on one
// sim::EventQueue and exposes transfer(src, dst, bytes, done): the flow is
// carried hop by hop — each hop queues FIFO behind every other flow sharing
// that output port, so a crowd of devices behind one access point congests
// the AP backhaul without any scripted bandwidth trace.
//
// Determinism: the fabric adds no randomness and no wall-clock reads. A
// flow's trajectory is a pure function of the event-queue order (each hop is
// one kTransferDone event), so fabric runs inherit the simulator's
// bit-determinism across runtime executor thread counts.
//
// Allocation: flows live in a pooled free list and hop completions are
// InlineFn-backed, so the steady state performs no heap allocation (the
// pool and the route cache grow only while new flow shapes first appear).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/router.h"
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

struct FabricOptions {
  /// Materialize the mirror (root -> leaf) ports so results can be routed
  /// back down. Off by default: uplink-only scenarios skip the extra links
  /// entirely.
  bool duplex = false;
  /// Admission cap applied to every port (see TopologyConfig); 0 =
  /// unbounded.
  double queue_limit_bytes = 0.0;
};

class Fabric {
 public:
  using Completion = sim::Completion;
  using Options = FabricOptions;

  /// Builds one router per topology node with a port per (directed) tree
  /// edge. The topology must validate().
  Fabric(sim::EventQueue& queue, Topology topology, Options options = {});

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

  /// The underlying link of the directed port src -> dst (one hop), e.g.
  /// to attach bandwidth traces or outage windows; nullptr when absent.
  sim::Link* link(NodeId src, NodeId dst);

  Router& router(NodeId node);

  /// Ports by fabric-wide id: dense, 0 .. num_ports() - 1, numbered in
  /// router order (devices, APs, the edge, cloud) and port order within a
  /// router. Router::Port::id holds the same number.
  std::size_t num_ports() const { return ports_.size(); }
  const Router::Port& port(std::uint32_t id) const { return *ports_[id]; }

  /// The route-aggregate observation along src -> dst at time t, from one
  /// route lookup.
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

  const Topology& topology() const { return topology_; }

  /// Flow-pool slots ever allocated (for zero-allocation gates: stable
  /// once the pool covers the peak number of in-flight flows).
  std::size_t flow_pool_capacity() const { return flows_.size(); }

 private:
  struct Hop {
    Router* router = nullptr;
    Router::Port* port = nullptr;
  };
  struct CachedRoute {
    std::array<Hop, Topology::Route::kMaxHops> hops;
    int count = 0;
  };
  struct Flow {
    double bytes = 0.0;
    Completion done;
    const CachedRoute* route = nullptr;
    int next_hop = 0;
    std::uint32_t next_free = 0;  ///< free-list link (kNoFlow = end)
    // Hop-span state (lives in the pooled slot, not in the per-hop
    // completion capture, which must stay within kCompletionCapacity).
    std::uint64_t tag = kNoTag;
    double hop_queued = 0.0;  ///< when the current hop entered its port
    double hop_exec = 0.0;    ///< when the port's link starts serializing
  };
  static constexpr std::uint32_t kNoFlow = 0xffffffffu;

  const CachedRoute& resolve(NodeId src, NodeId dst);
  std::uint32_t acquire_flow();
  void release_flow(std::uint32_t id);
  void advance(std::uint32_t id, double t);

  sim::EventQueue* queue_;
  Topology topology_;
  Options options_;
  std::vector<Router> routers_;  ///< devices, then APs, the edge, cloud
  std::vector<const Router::Port*> ports_;  ///< by fabric-wide port id
  std::unordered_map<std::uint64_t, CachedRoute> route_cache_;
  std::vector<Flow> flows_;
  std::uint32_t free_head_ = kNoFlow;
  Stats stats_;
  HopTap hop_tap_;
};

}  // namespace leime::net
