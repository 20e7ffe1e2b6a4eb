#include "net/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace leime::net {
namespace {

TEST(NodeId, StableNames) {
  EXPECT_EQ(to_string(NodeId::device(3)), "dev3");
  EXPECT_EQ(to_string(NodeId::ap(0)), "ap0");
  EXPECT_EQ(to_string(NodeId::edge()), "edge0");
  EXPECT_EQ(to_string(NodeId::cloud()), "cloud");
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

}  // namespace
}  // namespace leime::net
