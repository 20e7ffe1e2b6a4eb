#include "net/fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "support/alloc_hooks.h"

namespace leime::net {
namespace {

/// num_devices devices spread round-robin over num_aps APs. Uplinks
/// bw=100 B/s lat=0, AP backhaul bw=100 lat=0, edge->cloud bw=200 lat=0
/// unless customized by the test via the returned topology.
Topology grid(int num_devices, int num_aps) {
  TopologyConfig cfg;
  cfg.aps = num_aps;
  cfg.ap_bandwidth = 100.0;
  cfg.ap_latency = 0.0;
  return Topology::from_config(
      cfg, std::vector<LinkSpec>(static_cast<std::size_t>(num_devices),
                                 LinkSpec{100.0, 0.0}),
      {200.0, 0.0});
}

TEST(Fabric, SingleFlowStoreAndForwardTiming) {
  sim::EventQueue q;
  Topology topo(1, 1, {200.0, 0.05});
  topo.attach_device(0, 0, {100.0, 0.5});
  topo.attach_ap(0, {50.0, 0.1});
  Fabric fabric(q, topo);

  double t = -1.0;
  fabric.transfer(NodeId::device(0), NodeId::cloud(), 100.0,
                  [&](double tt) { t = tt; });
  q.run_all();
  // Store-and-forward: 1.0+0.5, then 2.0+0.1, then 0.5+0.05.
  EXPECT_DOUBLE_EQ(t, 4.15);
  EXPECT_EQ(fabric.stats().transfers, 1u);
  EXPECT_EQ(fabric.stats().delivered, 1u);
  EXPECT_EQ(fabric.stats().hops, 3u);
  EXPECT_DOUBLE_EQ(fabric.stats().bytes, 100.0);
}

TEST(Fabric, SameNodeTransferCompletesImmediately) {
  sim::EventQueue q;
  Fabric fabric(q, grid(1, 1));
  double t = -1.0;
  fabric.transfer(NodeId::ap(0), NodeId::ap(0), 42.0,
                  [&](double tt) { t = tt; });
  EXPECT_DOUBLE_EQ(t, 0.0);  // no hops, fires inline at now
  EXPECT_EQ(fabric.stats().delivered, 1u);
  EXPECT_EQ(fabric.stats().hops, 0u);
}

TEST(Fabric, CongestionEmergesAtSharedAp) {
  // Two devices behind ONE AP: their flows serialize on the shared
  // backhaul port. The same workload over two APs does not contend.
  const auto run = [](int num_aps) {
    sim::EventQueue q;
    Fabric fabric(q, grid(2, num_aps));
    std::vector<double> done;
    for (int d = 0; d < 2; ++d)
      fabric.transfer(NodeId::device(d), NodeId::edge(), 100.0,
                      [&](double t) { done.push_back(t); });
    q.run_all();
    std::sort(done.begin(), done.end());
    return done;
  };

  const auto shared = run(1);
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_DOUBLE_EQ(shared[0], 2.0);  // 1s wireless + 1s backhaul
  EXPECT_DOUBLE_EQ(shared[1], 3.0);  // queued behind the first at the AP

  const auto split = run(2);
  EXPECT_DOUBLE_EQ(split[0], 2.0);
  EXPECT_DOUBLE_EQ(split[1], 2.0);  // own AP: no queueing
}

TEST(Fabric, QueueLimitDropsSignalKDropped) {
  sim::EventQueue q;
  FabricOptions opts;
  opts.queue_limit_bytes = 250.0;
  Fabric fabric(q, grid(3, 1), opts);

  int delivered = 0, dropped = 0;
  for (int d = 0; d < 3; ++d)
    fabric.transfer(NodeId::device(d), NodeId::edge(), 100.0, [&](double t) {
      t < 0.0 ? ++dropped : ++delivered;
    });
  q.run_all();
  // All three arrive at the AP at t=1; the third finds 200 bytes queued
  // and 200 + 100 > 250 is over the cap.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(fabric.stats().transfers, 3u);
  EXPECT_EQ(fabric.stats().delivered, 2u);
  EXPECT_EQ(fabric.stats().drops, 1u);
  const auto* port =
      fabric.router(NodeId::ap(0)).find_port(NodeId::edge());
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(port->stats.drops, 1u);
}

TEST(Fabric, DuplexPortsCarryReturnTraffic) {
  sim::EventQueue q1;
  Fabric uplink_only(q1, grid(1, 1));
  EXPECT_THROW(uplink_only.transfer(NodeId::edge(), NodeId::device(0), 10.0,
                                    [](double) {}),
               std::invalid_argument);

  sim::EventQueue q2;
  FabricOptions opts;
  opts.duplex = true;
  Fabric fabric(q2, grid(1, 1), opts);
  double t = -1.0;
  fabric.transfer(NodeId::edge(), NodeId::device(0), 100.0,
                  [&](double tt) { t = tt; });
  q2.run_all();
  EXPECT_DOUBLE_EQ(t, 2.0);  // backhaul mirror + wireless mirror, 1s each
}

TEST(Fabric, RouteAggregatesAndLinkLookup) {
  sim::EventQueue q;
  Topology topo(1, 1, {200.0, 0.05});
  topo.attach_device(0, 0, {100.0, 0.5});
  topo.attach_ap(0, {50.0, 0.1});
  Fabric fabric(q, topo);

  const auto dev = NodeId::device(0);
  const auto cloud = NodeId::cloud();
  const RouteState idle = fabric.route_state(dev, cloud, 0.0);
  EXPECT_DOUBLE_EQ(idle.bandwidth, 50.0);
  EXPECT_DOUBLE_EQ(idle.latency, 0.65);
  EXPECT_DOUBLE_EQ(idle.backlog_bytes, 0.0);

  fabric.transfer(dev, cloud, 100.0, [](double) {});
  EXPECT_DOUBLE_EQ(fabric.route_state(dev, cloud, 0.0).backlog_bytes, 100.0);

  EXPECT_NE(fabric.link(dev, NodeId::ap(0)), nullptr);
  EXPECT_EQ(fabric.link(NodeId::ap(0), dev), nullptr);  // no duplex mirror
}

TEST(Fabric, ExportMetricsCoversSharedPortsOnly) {
  sim::EventQueue q;
  Fabric fabric(q, grid(2, 1));
  for (int d = 0; d < 2; ++d)
    fabric.transfer(NodeId::device(d), NodeId::cloud(), 100.0, [](double) {});
  q.run_all();

  obs::MetricsRegistry registry;
  fabric.export_metrics(registry, 10.0);
  const auto snap = registry.snapshot();

  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("leime_net_transfers_total"), 2u);
  EXPECT_EQ(counter("leime_net_delivered_total"), 2u);
  EXPECT_EQ(counter("leime_net_hops_total"), 6u);
  EXPECT_EQ(counter("leime_net_port_ap0_edge0_transfers_total"), 2u);
  EXPECT_EQ(counter("leime_net_port_edge0_cloud_transfers_total"), 2u);

  // Device-adjacent ports stay out of the registry (cardinality).
  for (const auto& c : snap.counters)
    EXPECT_EQ(c.name.find("dev"), std::string::npos) << c.name;
}

TEST(Fabric, SteadyStateFlowsRunWithZeroAllocations) {
  sim::EventQueue q;
  FabricOptions opts;
  opts.duplex = true;
  Fabric fabric(q, grid(4, 2), opts);

  std::uint64_t delivered = 0;
  const auto blast = [&] {
    for (int d = 0; d < 4; ++d) {
      fabric.transfer(NodeId::device(d), NodeId::edge(), 100.0,
                      [&](double) { ++delivered; });
      fabric.transfer(NodeId::edge(), NodeId::device(d), 50.0,
                      [&](double) { ++delivered; });
    }
    q.run_all();
  };

  // Warmup populates the route cache, flow pool and event pool.
  blast();
  const std::size_t warm_flows = fabric.flow_pool_capacity();

  const std::uint64_t allocs_before = testsupport::allocation_count();
  for (int round = 0; round < 200; ++round) blast();
  EXPECT_EQ(testsupport::allocation_count() - allocs_before, 0u)
      << "fabric steady state allocated on the hot path";
  EXPECT_EQ(fabric.flow_pool_capacity(), warm_flows);
  EXPECT_EQ(delivered, 8u * 201u);
}

TEST(Fabric, RepeatedRunsAreDeterministic) {
  const auto run = [] {
    sim::EventQueue q;
    Fabric fabric(q, grid(6, 2));
    std::vector<double> done;
    for (int d = 0; d < 6; ++d)
      fabric.transfer(NodeId::device(d), NodeId::cloud(), 100.0 + 10.0 * d,
                      [&](double t) { done.push_back(t); });
    q.run_all();
    return done;
  };
  EXPECT_EQ(run(), run());  // byte-identical completion order and times
}

// A route-cache miss climbs one branch of the tree; it does not scan the
// whole tree. A fleet's first decision epoch observes one device -> edge
// route per device, so that pass must scale linearly with the fleet size.
// Times it at 4,096 and at 65,536 devices (128 per AP, the minimum of three
// runs each): linear code gives a ratio of about 16-25, a per-miss scan of
// the tree about 250.
TEST(Fabric, FirstRoutePassScalesLinearly) {
  const auto first_pass_s = [](int devices) {
    double best = std::numeric_limits<double>::infinity();
    for (int run = 0; run < 3; ++run) {
      sim::EventQueue q;
      Fabric fabric(q, grid(devices, devices / 128));
      double bandwidth = 0.0;
      const auto start = std::chrono::steady_clock::now();
      for (int d = 0; d < devices; ++d)
        bandwidth += fabric.route_state(NodeId::device(d), NodeId::edge(), 0.0)
                         .bandwidth;
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - start;
      EXPECT_DOUBLE_EQ(bandwidth, 100.0 * devices);
      best = std::min(best, took.count());
    }
    return best;
  };
  const double small = first_pass_s(4096);
  const double large = first_pass_s(65536);
  EXPECT_LT(large / small, 64.0) << small << " s vs " << large << " s";
}

TEST(Fabric, NegativeBytesThrow) {
  sim::EventQueue q;
  Fabric fabric(q, grid(1, 1));
  EXPECT_THROW(fabric.transfer(NodeId::device(0), NodeId::cloud(), -1.0,
                               [](double) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace leime::net
