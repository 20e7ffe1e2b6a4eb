#include "net/topology.h"

#include <cmath>
#include <stdexcept>

namespace leime::net {

const char* to_string(Tier tier) {
  switch (tier) {
    case Tier::kDevice: return "dev";
    case Tier::kAp: return "ap";
    case Tier::kEdge: return "edge";
    case Tier::kCloud: return "cloud";
  }
  return "?";
}

std::string to_string(NodeId node) {
  if (node.tier == Tier::kCloud) return "cloud";
  return std::string(to_string(node.tier)) + std::to_string(node.index);
}

void LinkSpec::validate(const char* what) const {
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth))
    throw std::invalid_argument(std::string("net: ") + what +
                                " bandwidth must be finite and > 0");
  if (latency < 0.0 || !std::isfinite(latency))
    throw std::invalid_argument(std::string("net: ") + what +
                                " latency must be finite and >= 0");
}

void TopologyConfig::validate(std::size_t num_devices) const {
  if (aps < 0) throw std::invalid_argument("[topology] aps must be >= 0");
  if (!enabled()) return;
  LinkSpec{ap_bandwidth, ap_latency}.validate("[topology] ap");
  if (queue_limit_bytes < 0.0 || !std::isfinite(queue_limit_bytes))
    throw std::invalid_argument(
        "[topology] queue_limit must be finite and >= 0");
  if (!device_map.empty()) {
    if (device_map.size() != num_devices)
      throw std::invalid_argument(
          "[topology] device_map must list one AP per device");
    for (int ap : device_map)
      if (ap < 0 || ap >= aps)
        throw std::invalid_argument("[topology] device_map entry " +
                                    std::to_string(ap) + " out of range");
  }
}

}  // namespace leime::net
