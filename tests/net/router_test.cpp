#include "net/router.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"

namespace leime::net {
namespace {

TEST(Router, PortNamesAndLookup) {
  sim::EventQueue q;
  Router r(q, NodeId::device(3));
  auto& port = r.add_port(NodeId::ap(0), {100.0, 0.5}, 0.0);
  EXPECT_EQ(port.name, "dev3_ap0");
  EXPECT_EQ(port.dst, NodeId::ap(0));
  EXPECT_EQ(r.find_port(NodeId::ap(0)), &port);
  EXPECT_EQ(r.find_port(NodeId::ap(1)), nullptr);
  EXPECT_EQ(r.node(), NodeId::device(3));
}

TEST(Router, SendSerializesFifoAndCounts) {
  sim::EventQueue q;
  Router r(q, NodeId::ap(0));
  auto& port = r.add_port(NodeId::edge(), {100.0, 0.5}, 0.0);
  std::vector<double> done;
  EXPECT_TRUE(r.send(port, 200.0, [&](double t) { done.push_back(t); }));
  EXPECT_TRUE(r.send(port, 100.0, [&](double t) { done.push_back(t); }));
  q.run_all();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 2.5);  // 2s serialization + 0.5 latency
  EXPECT_DOUBLE_EQ(done[1], 3.5);  // queued behind the first
  EXPECT_EQ(port.stats.transfers, 2u);
  EXPECT_EQ(port.stats.drops, 0u);
  EXPECT_DOUBLE_EQ(port.stats.bytes, 300.0);
  EXPECT_DOUBLE_EQ(port.stats.busy_time, 3.0);
  // Second admission: the first flow's 200 bytes still queued + its own.
  EXPECT_DOUBLE_EQ(port.stats.peak_backlog_bytes, 300.0);
}

TEST(Router, QueueLimitDropsExcessFlows) {
  sim::EventQueue q;
  Router r(q, NodeId::ap(0));
  auto& port = r.add_port(NodeId::edge(), {100.0, 0.0}, 150.0);
  int delivered = 0, not_sent = 0;
  // 100 admitted (backlog 0 -> 100), second 100 would reach 200 > 150.
  EXPECT_TRUE(r.send(port, 100.0, [&](double) { ++delivered; }));
  EXPECT_FALSE(r.send(port, 100.0, [&](double) { ++not_sent; }));
  q.run_all();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(not_sent, 0);  // send() returning false never fires done
  EXPECT_EQ(port.stats.transfers, 1u);
  EXPECT_EQ(port.stats.drops, 1u);
  EXPECT_DOUBLE_EQ(port.stats.bytes, 100.0);
}

TEST(Router, ZeroByteControlTrafficBypassesQueueLimit) {
  sim::EventQueue q;
  Router r(q, NodeId::edge());
  auto& port = r.add_port(NodeId::cloud(), {100.0, 0.25}, 50.0);
  EXPECT_TRUE(r.send(port, 50.0, [](double) {}));
  double t = -1.0;
  // Backlog is at the cap, but zero-byte transfers are always admitted.
  EXPECT_TRUE(r.send(port, 0.0, [&](double tt) { t = tt; }));
  q.run_all();
  EXPECT_DOUBLE_EQ(t, 0.75);  // behind 0.5s serialization, + latency
}

}  // namespace
}  // namespace leime::net
