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

/// num_aps APs with the given backhaul and queue limit; devices join them
/// round-robin.
TopologyConfig ap_tier(int num_aps, LinkSpec backhaul = {100.0, 0.0},
                       double queue_limit_bytes = 0.0) {
  TopologyConfig cfg;
  cfg.aps = num_aps;
  cfg.ap_bandwidth = backhaul.bandwidth;
  cfg.ap_latency = backhaul.latency;
  cfg.queue_limit_bytes = queue_limit_bytes;
  return cfg;
}

std::vector<LinkSpec> uplinks(int num_devices, LinkSpec spec = {100.0, 0.0}) {
  return std::vector<LinkSpec>(static_cast<std::size_t>(num_devices), spec);
}

/// num_devices devices spread round-robin over num_aps APs. Uplinks
/// bw=100 B/s lat=0, AP backhaul bw=100 lat=0, edge->cloud bw=200 lat=0.
Fabric grid(sim::EventQueue& q, int num_devices, int num_aps,
            bool duplex = false) {
  return Fabric(q, ap_tier(num_aps), uplinks(num_devices), {200.0, 0.0},
                duplex);
}

TEST(Fabric, SingleFlowStoreAndForwardTiming) {
  sim::EventQueue q;
  Fabric fabric(q, ap_tier(1, {50.0, 0.1}), {{100.0, 0.5}}, {200.0, 0.05});

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

// The port table and the routes of 3 devices over 2 APs with duplex
// ports: ids by source node (devices, APs, edge, cloud), a node's
// downlinks before its uplink, and each route the up-path to the lowest
// common ancestor plus the down-path, as the hop tap reports it.
TEST(Fabric, PortTableAndRoutesArePinned) {
  sim::EventQueue q;
  Fabric fabric = grid(q, 3, 2, /*duplex=*/true);

  std::string table;
  for (std::uint32_t id = 0; id < fabric.num_ports(); ++id) {
    EXPECT_EQ(fabric.port(id).id, id);
    table += (id ? " " : "") + std::to_string(id) + "=" + fabric.port(id).name;
  }
  EXPECT_EQ(table,
            "0=dev0_ap0 1=dev1_ap1 2=dev2_ap0 3=ap0_dev0 4=ap0_dev2 "
            "5=ap0_edge0 6=ap1_dev1 7=ap1_edge0 8=edge0_ap0 9=edge0_ap1 "
            "10=edge0_cloud 11=cloud_edge0");

  std::string hops;
  fabric.set_hop_tap([&](std::uint64_t, std::uint32_t port, double, double,
                         double) {
    hops += (hops.empty() ? "" : " ") + fabric.port(port).name;
  });
  const auto route = [&](NodeId src, NodeId dst) {
    hops.clear();
    fabric.transfer(src, dst, 10.0, /*tag=*/1, [](double) {});
    q.run_all();
    return hops;
  };
  EXPECT_EQ(route(NodeId::device(2), NodeId::edge()), "dev2_ap0 ap0_edge0");
  EXPECT_EQ(route(NodeId::edge(), NodeId::cloud()), "edge0_cloud");
  EXPECT_EQ(route(NodeId::device(0), NodeId::cloud()),
            "dev0_ap0 ap0_edge0 edge0_cloud");
  EXPECT_EQ(route(NodeId::edge(), NodeId::device(1)), "edge0_ap1 ap1_dev1");
  EXPECT_EQ(route(NodeId::cloud(), NodeId::device(1)),
            "cloud_edge0 edge0_ap1 ap1_dev1");
  // Same-AP peers turn around at the AP; across APs, at the edge.
  EXPECT_EQ(route(NodeId::device(0), NodeId::device(2)), "dev0_ap0 ap0_dev2");
  EXPECT_EQ(route(NodeId::device(0), NodeId::device(1)),
            "dev0_ap0 ap0_edge0 edge0_ap1 ap1_dev1");
}

TEST(Fabric, PortNamesAndAbsentPortLookup) {
  sim::EventQueue q;
  Fabric fabric = grid(q, 4, 2);
  const Fabric::Port* port = fabric.port(NodeId::device(3), NodeId::ap(1));
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(port->name, "dev3_ap1");
  EXPECT_EQ(&fabric.port(port->id), port);
  EXPECT_EQ(fabric.port(NodeId::device(3), NodeId::ap(0)), nullptr);
  EXPECT_EQ(fabric.port(NodeId::device(3), NodeId::edge()), nullptr);
  // No duplex mirrors.
  EXPECT_EQ(fabric.port(NodeId::ap(1), NodeId::device(3)), nullptr);
  EXPECT_EQ(fabric.port(NodeId::cloud(), NodeId::edge()), nullptr);
  ASSERT_NE(fabric.port(NodeId::edge(), NodeId::cloud()), nullptr);
  EXPECT_EQ(fabric.port(NodeId::edge(), NodeId::cloud())->name, "edge0_cloud");
}

TEST(Fabric, BuildsFromConfigRoundRobinOrExplicitMap) {
  sim::EventQueue q;
  TopologyConfig cfg = ap_tier(2, {1000.0, 0.005});
  const auto three = uplinks(3, {100.0, 0.01});
  const Fabric rr(q, cfg, three, {5000.0, 0.05});
  EXPECT_EQ(rr.ap_of(0), 0);
  EXPECT_EQ(rr.ap_of(1), 1);
  EXPECT_EQ(rr.ap_of(2), 0);
  const RouteState path =
      rr.route_state(NodeId::device(1), NodeId::cloud(), 0.0);
  EXPECT_DOUBLE_EQ(path.bandwidth, 100.0);
  EXPECT_DOUBLE_EQ(path.latency, 0.01 + 0.005 + 0.05);

  cfg.device_map = {1, 1, 0};
  const Fabric mapped(q, cfg, three, {5000.0, 0.05});
  EXPECT_EQ(mapped.ap_of(0), 1);
  EXPECT_EQ(mapped.ap_of(2), 0);
  EXPECT_EQ(mapped.port(0).name, "dev0_ap1");

  cfg.device_map.clear();
  cfg.aps = 0;
  EXPECT_THROW(Fabric(q, cfg, three, {5000.0, 0.05}), std::invalid_argument);
  cfg.aps = 3;
  cfg.device_map = {0, 1};  // one AP short for three devices
  EXPECT_THROW(Fabric(q, cfg, three, {5000.0, 0.05}), std::invalid_argument);
}

TEST(Fabric, RejectsBadLinkSpecs) {
  sim::EventQueue q;
  const TopologyConfig cfg = ap_tier(1);
  const auto build = [&](LinkSpec device, LinkSpec edge_cloud) {
    const Fabric fabric(q, cfg, {device}, edge_cloud);
  };
  EXPECT_NO_THROW(build({1.0, 0.0}, {1.0, 0.0}));
  const double inf = std::numeric_limits<double>::infinity();
  for (const LinkSpec bad : {LinkSpec{0.0, 0.0}, LinkSpec{1.0, -0.1},
                             LinkSpec{inf, 0.0}, LinkSpec{1.0, inf}}) {
    EXPECT_THROW(build(bad, {1.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(build({1.0, 0.0}, bad), std::invalid_argument);
  }
  try {
    build({0.0, 0.0}, {1.0, 0.0});
    ADD_FAILURE() << "a zero-bandwidth uplink was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "net: device uplink bandwidth must be finite and > 0");
  }
}

TEST(Fabric, RejectsNodesOutsideTheTree) {
  sim::EventQueue q;
  Fabric fabric = grid(q, 2, 1);
  const auto done = [](double) {};
  for (const NodeId bad : {NodeId::device(2), NodeId::device(-1),
                           NodeId::ap(1), NodeId{Tier::kEdge, 1}}) {
    EXPECT_THROW(fabric.transfer(bad, bad, 1.0, done), std::invalid_argument);
    EXPECT_THROW(fabric.transfer(bad, NodeId::cloud(), 1.0, done),
                 std::invalid_argument);
    EXPECT_THROW(fabric.route_state(NodeId::cloud(), bad, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(fabric.port(bad, NodeId::ap(0)), std::invalid_argument);
  }
  EXPECT_THROW(fabric.ap_of(2), std::invalid_argument);
}

TEST(Fabric, SameNodeTransferCompletesImmediately) {
  sim::EventQueue q;
  Fabric fabric = grid(q, 1, 1);
  double t = -1.0;
  fabric.transfer(NodeId::ap(0), NodeId::ap(0), 42.0,
                  [&](double tt) { t = tt; });
  EXPECT_DOUBLE_EQ(t, 0.0);  // no hops, fires inline at now
  EXPECT_EQ(fabric.stats().delivered, 1u);
  EXPECT_EQ(fabric.stats().hops, 0u);
}

TEST(Fabric, PortSerializesFifoAndCountsStats) {
  sim::EventQueue q;
  Fabric fabric(q, ap_tier(1, {100.0, 0.5}), uplinks(1), {200.0, 0.0});
  std::vector<double> done;
  for (const double bytes : {200.0, 100.0})
    fabric.transfer(NodeId::ap(0), NodeId::edge(), bytes,
                    [&](double t) { done.push_back(t); });
  q.run_all();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 2.5);  // 2s serialization + 0.5 latency
  EXPECT_DOUBLE_EQ(done[1], 3.5);  // queued behind the first
  const PortStats& stats =
      fabric.port(NodeId::ap(0), NodeId::edge())->stats;
  EXPECT_EQ(stats.transfers, 2u);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_DOUBLE_EQ(stats.bytes, 300.0);
  EXPECT_DOUBLE_EQ(stats.busy_time, 3.0);
  // Second admission: the first flow's 200 bytes still queued + its own.
  EXPECT_DOUBLE_EQ(stats.peak_backlog_bytes, 300.0);
}

TEST(Fabric, CongestionEmergesAtSharedAp) {
  // Two devices behind ONE AP: their flows serialize on the shared
  // backhaul port. The same workload over two APs does not contend.
  const auto run = [](int num_aps) {
    sim::EventQueue q;
    Fabric fabric = grid(q, 2, num_aps);
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
  Fabric fabric(q, ap_tier(1, {100.0, 0.0}, 250.0), uplinks(3),
                {200.0, 0.0});

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
  const PortStats& stats =
      fabric.port(NodeId::ap(0), NodeId::edge())->stats;
  EXPECT_EQ(stats.transfers, 2u);
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_DOUBLE_EQ(stats.bytes, 200.0);
}

TEST(Fabric, ZeroByteFlowsBypassQueueLimit) {
  sim::EventQueue q;
  Fabric fabric(q, ap_tier(1, {100.0, 0.0}, 50.0), uplinks(1),
                {100.0, 0.25});
  fabric.transfer(NodeId::edge(), NodeId::cloud(), 50.0, [](double) {});
  double t = -1.0;
  // Backlog is at the cap, but zero-byte flows are always admitted.
  fabric.transfer(NodeId::edge(), NodeId::cloud(), 0.0,
                  [&](double tt) { t = tt; });
  q.run_all();
  EXPECT_DOUBLE_EQ(t, 0.75);  // behind 0.5s serialization, + latency
  EXPECT_EQ(fabric.stats().drops, 0u);
}

TEST(Fabric, DuplexPortsCarryReturnTraffic) {
  sim::EventQueue q1;
  Fabric uplink_only = grid(q1, 1, 1);
  EXPECT_THROW(uplink_only.transfer(NodeId::edge(), NodeId::device(0), 10.0,
                                    [](double) {}),
               std::invalid_argument);

  sim::EventQueue q2;
  Fabric fabric = grid(q2, 1, 1, /*duplex=*/true);
  double t = -1.0;
  fabric.transfer(NodeId::edge(), NodeId::device(0), 100.0,
                  [&](double tt) { t = tt; });
  q2.run_all();
  EXPECT_DOUBLE_EQ(t, 2.0);  // backhaul mirror + wireless mirror, 1s each
}

TEST(Fabric, RouteAggregates) {
  sim::EventQueue q;
  Fabric fabric(q, ap_tier(1, {50.0, 0.1}), {{100.0, 0.5}}, {200.0, 0.05});

  const auto dev = NodeId::device(0);
  const auto cloud = NodeId::cloud();
  const RouteState idle = fabric.route_state(dev, cloud, 0.0);
  EXPECT_DOUBLE_EQ(idle.bandwidth, 50.0);
  EXPECT_DOUBLE_EQ(idle.latency, 0.65);
  EXPECT_DOUBLE_EQ(idle.backlog_bytes, 0.0);

  fabric.transfer(dev, cloud, 100.0, [](double) {});
  EXPECT_DOUBLE_EQ(fabric.route_state(dev, cloud, 0.0).backlog_bytes, 100.0);
}

TEST(Fabric, ExportMetricsCoversSharedPortsOnly) {
  sim::EventQueue q;
  Fabric fabric = grid(q, 2, 1);
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

  // With duplex ports, the mirrors of the shared links join them.
  sim::EventQueue q2;
  obs::MetricsRegistry duplex_registry;
  grid(q2, 3, 2, /*duplex=*/true).export_metrics(duplex_registry, 10.0);
  std::vector<std::string> ports;
  for (const auto& c : duplex_registry.snapshot().counters)
    if (c.name.find("_drops_total") != std::string::npos &&
        c.name.rfind("leime_net_port_", 0) == 0)
      ports.push_back(c.name);
  EXPECT_EQ(ports, (std::vector<std::string>{
                       "leime_net_port_ap0_edge0_drops_total",
                       "leime_net_port_ap1_edge0_drops_total",
                       "leime_net_port_cloud_edge0_drops_total",
                       "leime_net_port_edge0_ap0_drops_total",
                       "leime_net_port_edge0_ap1_drops_total",
                       "leime_net_port_edge0_cloud_drops_total"}));
}

TEST(Fabric, SteadyStateFlowsRunWithZeroAllocations) {
  sim::EventQueue q;
  Fabric fabric = grid(q, 4, 2, /*duplex=*/true);

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

  // Warmup populates the flow pool and event pool.
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
    Fabric fabric = grid(q, 6, 2);
    std::vector<double> done;
    for (int d = 0; d < 6; ++d)
      fabric.transfer(NodeId::device(d), NodeId::cloud(), 100.0 + 10.0 * d,
                      [&](double t) { done.push_back(t); });
    q.run_all();
    return done;
  };
  EXPECT_EQ(run(), run());  // byte-identical completion order and times
}

// A route climbs one branch of the tree per endpoint; it never scans the
// whole tree. A fleet's first decision epoch observes one device -> edge
// route per device, so that pass must scale linearly with the fleet size.
// Times it at 4,096 and at 65,536 devices (128 per AP, the minimum of three
// runs each): linear code gives a ratio of about 16-25, a per-route scan of
// the tree about 250.
TEST(Fabric, FirstRoutePassScalesLinearly) {
  const auto first_pass_s = [](int devices) {
    double best = std::numeric_limits<double>::infinity();
    for (int run = 0; run < 3; ++run) {
      sim::EventQueue q;
      Fabric fabric = grid(q, devices, devices / 128);
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
  Fabric fabric = grid(q, 1, 1);
  EXPECT_THROW(fabric.transfer(NodeId::device(0), NodeId::cloud(), -1.0,
                               [](double) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace leime::net
