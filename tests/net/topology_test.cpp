#include "net/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace leime::net {
namespace {

Topology small_tree() {
  // dev0, dev1 -> ap0; dev2 -> ap1; both APs -> edge0 -> cloud.
  Topology topo(3, 2, {5000.0, 0.05});
  topo.attach_device(0, 0, {100.0, 0.01});
  topo.attach_device(1, 0, {200.0, 0.02});
  topo.attach_device(2, 1, {300.0, 0.03});
  topo.attach_ap(0, {1000.0, 0.001});
  topo.attach_ap(1, {2000.0, 0.002});
  return topo;
}

TEST(NodeId, StableNames) {
  EXPECT_EQ(to_string(NodeId::device(3)), "dev3");
  EXPECT_EQ(to_string(NodeId::ap(0)), "ap0");
  EXPECT_EQ(to_string(NodeId::edge()), "edge0");
  EXPECT_EQ(to_string(NodeId::cloud()), "cloud");
}

TEST(Topology, AccessorsReflectAttachments) {
  const auto topo = small_tree();
  topo.validate();
  EXPECT_EQ(topo.ap_of(0), 0);
  EXPECT_EQ(topo.ap_of(2), 1);
  EXPECT_EQ(topo.parent(NodeId::ap(1)), NodeId::edge());
  EXPECT_DOUBLE_EQ(topo.device_up(1).bandwidth, 200.0);
  EXPECT_DOUBLE_EQ(topo.ap_up(1).latency, 0.002);
  EXPECT_DOUBLE_EQ(topo.edge_up().bandwidth, 5000.0);
  EXPECT_EQ(topo.parent(NodeId::device(2)), NodeId::ap(1));
  EXPECT_EQ(topo.parent(NodeId::ap(0)), NodeId::edge());
  EXPECT_EQ(topo.parent(NodeId::edge()), NodeId::cloud());
  EXPECT_THROW(topo.parent(NodeId::cloud()), std::invalid_argument);
}

TEST(Topology, ValidateRejectsUnattachedNodes) {
  Topology topo(1, 1, {1.0, 0.0});
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo.attach_device(0, 0, {1.0, 0.0});
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo.attach_ap(0, {1.0, 0.0});
  EXPECT_NO_THROW(topo.validate());
  // The edge's cloud uplink is part of the tree from the start.
  EXPECT_THROW(Topology(1, 1, {0.0, 0.0}), std::invalid_argument);
}

TEST(Topology, AttachRejectsBadIndicesAndSpecs) {
  Topology topo(1, 1, {1.0, 0.0});
  EXPECT_THROW(topo.attach_device(1, 0, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(topo.attach_device(0, 1, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(topo.attach_device(0, 0, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(topo.attach_device(0, 0, {1.0, -0.1}), std::invalid_argument);
  EXPECT_THROW(topo.attach_ap(1, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(Topology(-1, 1, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(Topology(0, 0, {1.0, 0.0}), std::invalid_argument);
}

TEST(Topology, RouteClimbsToLowestCommonAncestor) {
  const auto topo = small_tree();

  const auto up = topo.route(NodeId::device(0), NodeId::cloud());
  ASSERT_EQ(up.count, 3);
  EXPECT_EQ(up.hops[0].first, NodeId::device(0));
  EXPECT_EQ(up.hops[0].second, NodeId::ap(0));
  EXPECT_EQ(up.hops[1].second, NodeId::edge());
  EXPECT_EQ(up.hops[2].second, NodeId::cloud());

  // Same-AP peers meet at the AP: 2 hops, not 4.
  const auto peer = topo.route(NodeId::device(0), NodeId::device(1));
  ASSERT_EQ(peer.count, 2);
  EXPECT_EQ(peer.hops[0].second, NodeId::ap(0));
  EXPECT_EQ(peer.hops[1].first, NodeId::ap(0));
  EXPECT_EQ(peer.hops[1].second, NodeId::device(1));

  // Cross-AP devices meet at the edge.
  const auto cross = topo.route(NodeId::device(0), NodeId::device(2));
  ASSERT_EQ(cross.count, 4);
  EXPECT_EQ(cross.hops[1].second, NodeId::edge());
  EXPECT_EQ(cross.hops[2].second, NodeId::ap(1));
  EXPECT_EQ(cross.hops[3].second, NodeId::device(2));

  // Downlink-only route (edge -> device) mirrors the uplink.
  const auto down = topo.route(NodeId::edge(), NodeId::device(1));
  ASSERT_EQ(down.count, 2);
  EXPECT_EQ(down.hops[0].first, NodeId::edge());
  EXPECT_EQ(down.hops[0].second, NodeId::ap(0));
  EXPECT_EQ(down.hops[1].second, NodeId::device(1));

  EXPECT_EQ(topo.route(NodeId::ap(1), NodeId::ap(1)).count, 0);
}

TEST(TopologyConfig, ValidateEnforcesShape) {
  TopologyConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_NO_THROW(cfg.validate(4));  // disabled skips the rest

  cfg.aps = -1;
  EXPECT_THROW(cfg.validate(4), std::invalid_argument);
  cfg.aps = 2;
  EXPECT_THROW(cfg.validate(4), std::invalid_argument);  // bandwidth 0
  cfg.ap_bandwidth = 1e6;
  EXPECT_NO_THROW(cfg.validate(4));
  cfg.ap_latency = -0.1;
  EXPECT_THROW(cfg.validate(4), std::invalid_argument);
  cfg.ap_latency = 0.0;
  cfg.queue_limit_bytes = -1.0;
  EXPECT_THROW(cfg.validate(4), std::invalid_argument);
  cfg.queue_limit_bytes = 0.0;
  cfg.device_map = {0, 1, 0};  // wrong size for 4 devices
  EXPECT_THROW(cfg.validate(4), std::invalid_argument);
  cfg.device_map = {0, 1, 0, 2};  // AP 2 out of range
  EXPECT_THROW(cfg.validate(4), std::invalid_argument);
  cfg.device_map = {0, 1, 0, 1};
  EXPECT_NO_THROW(cfg.validate(4));
}

TEST(TopologyConfig, FromConfigRoundRobinAndExplicitMap) {
  TopologyConfig cfg;
  cfg.aps = 2;
  cfg.ap_bandwidth = 1000.0;
  cfg.ap_latency = 0.005;
  const std::vector<LinkSpec> uplinks{{100.0, 0.01}, {100.0, 0.01},
                                      {100.0, 0.01}};
  const auto rr = Topology::from_config(cfg, uplinks, {5000.0, 0.05});
  EXPECT_EQ(rr.ap_of(0), 0);
  EXPECT_EQ(rr.ap_of(1), 1);
  EXPECT_EQ(rr.ap_of(2), 0);
  EXPECT_DOUBLE_EQ(rr.ap_up(1).bandwidth, 1000.0);
  EXPECT_DOUBLE_EQ(rr.edge_up().latency, 0.05);

  cfg.device_map = {1, 1, 0};
  const auto mapped = Topology::from_config(cfg, uplinks, {5000.0, 0.05});
  EXPECT_EQ(mapped.ap_of(0), 1);
  EXPECT_EQ(mapped.ap_of(2), 0);

  cfg.device_map.clear();
  cfg.aps = 0;
  EXPECT_THROW(Topology::from_config(cfg, uplinks, {5000.0, 0.05}),
               std::invalid_argument);
}

}  // namespace
}  // namespace leime::net
