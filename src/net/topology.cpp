#include "net/topology.h"

#include <cmath>
#include <stdexcept>

namespace leime::net {
namespace {

/// Depth from the root (cloud) — used to climb the tree toward the lowest
/// common ancestor when computing routes.
int depth(Tier tier) {
  switch (tier) {
    case Tier::kDevice: return 3;
    case Tier::kAp: return 2;
    case Tier::kEdge: return 1;
    case Tier::kCloud: return 0;
  }
  throw std::invalid_argument("net: unknown tier");
}

void check_spec(const LinkSpec& spec, const char* what) {
  if (!(spec.bandwidth > 0.0) || !std::isfinite(spec.bandwidth))
    throw std::invalid_argument(std::string("net: ") + what +
                                " bandwidth must be finite and > 0");
  if (spec.latency < 0.0 || !std::isfinite(spec.latency))
    throw std::invalid_argument(std::string("net: ") + what +
                                " latency must be finite and >= 0");
}

}  // namespace

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

void TopologyConfig::validate(std::size_t num_devices) const {
  if (aps < 0) throw std::invalid_argument("[topology] aps must be >= 0");
  if (!enabled()) return;
  check_spec({ap_bandwidth, ap_latency}, "[topology] ap");
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

Topology::Topology(int num_devices, int num_aps, LinkSpec edge_cloud)
    : num_devices_(num_devices), num_aps_(num_aps), edge_up_(edge_cloud) {
  if (num_devices < 0 || num_aps < 1)
    throw std::invalid_argument("net: topology needs devices >= 0, aps >= 1");
  check_spec(edge_cloud, "edge uplink");
  ap_of_device_.assign(static_cast<std::size_t>(num_devices), -1);
  device_up_.resize(static_cast<std::size_t>(num_devices));
  ap_up_.resize(static_cast<std::size_t>(num_aps));
}

void Topology::attach_device(int device, int ap, LinkSpec up) {
  if (device < 0 || device >= num_devices_)
    throw std::invalid_argument("net: device index out of range");
  if (ap < 0 || ap >= num_aps_)
    throw std::invalid_argument("net: ap index out of range");
  check_spec(up, "device uplink");
  ap_of_device_[static_cast<std::size_t>(device)] = ap;
  device_up_[static_cast<std::size_t>(device)] = up;
}

void Topology::attach_ap(int ap, LinkSpec up) {
  if (ap < 0 || ap >= num_aps_)
    throw std::invalid_argument("net: ap index out of range");
  check_spec(up, "ap backhaul");
  ap_up_[static_cast<std::size_t>(ap)] = up;
}

void Topology::validate() const {
  for (int d = 0; d < num_devices_; ++d)
    if (ap_of_device_[static_cast<std::size_t>(d)] < 0)
      throw std::invalid_argument("net: device " + std::to_string(d) +
                                  " is not attached to an AP");
  for (int a = 0; a < num_aps_; ++a)
    if (!(ap_up_[static_cast<std::size_t>(a)].bandwidth > 0.0))
      throw std::invalid_argument("net: ap " + std::to_string(a) +
                                  " is not attached to the edge");
}

NodeId Topology::parent(NodeId node) const {
  switch (node.tier) {
    case Tier::kDevice:
      if (node.index < 0 || node.index >= num_devices_)
        throw std::invalid_argument("net: device index out of range");
      return NodeId::ap(ap_of_device_[static_cast<std::size_t>(node.index)]);
    case Tier::kAp:
      if (node.index < 0 || node.index >= num_aps_)
        throw std::invalid_argument("net: ap index out of range");
      return NodeId::edge();
    case Tier::kEdge:
      return NodeId::cloud();
    case Tier::kCloud:
      break;
  }
  throw std::invalid_argument("net: cloud has no parent");
}

Topology::Route Topology::route(NodeId src, NodeId dst) const {
  Route out;
  if (src == dst) return out;

  // Climb both endpoints to the lowest common ancestor; the up-climb from
  // src yields forward hops, the up-climb from dst yields the reversed
  // tail (down-hops away from the root).
  std::array<NodeId, Route::kMaxHops + 1> up{};
  std::array<NodeId, Route::kMaxHops + 1> down{};
  int nu = 0, nd = 0;
  NodeId a = src, b = dst;
  up[static_cast<std::size_t>(nu++)] = a;
  down[static_cast<std::size_t>(nd++)] = b;
  while (!(a == b)) {
    if (depth(a.tier) >= depth(b.tier)) {
      a = parent(a);
      up[static_cast<std::size_t>(nu++)] = a;
    } else {
      b = parent(b);
      down[static_cast<std::size_t>(nd++)] = b;
    }
  }
  for (int i = 0; i + 1 < nu; ++i)
    out.hops[static_cast<std::size_t>(out.count++)] = {
        up[static_cast<std::size_t>(i)], up[static_cast<std::size_t>(i + 1)]};
  for (int i = nd - 1; i > 0; --i)
    out.hops[static_cast<std::size_t>(out.count++)] = {
        down[static_cast<std::size_t>(i)],
        down[static_cast<std::size_t>(i - 1)]};
  return out;
}

Topology Topology::from_config(const TopologyConfig& config,
                               const std::vector<LinkSpec>& device_uplinks,
                               LinkSpec edge_cloud) {
  config.validate(device_uplinks.size());
  if (!config.enabled())
    throw std::invalid_argument("net: from_config needs an enabled topology");
  const int n = static_cast<int>(device_uplinks.size());
  Topology topo(n, config.aps, edge_cloud);
  for (int d = 0; d < n; ++d) {
    const int ap = config.device_map.empty()
                       ? d % config.aps
                       : config.device_map[static_cast<std::size_t>(d)];
    topo.attach_device(d, ap, device_uplinks[static_cast<std::size_t>(d)]);
  }
  for (int a = 0; a < config.aps; ++a)
    topo.attach_ap(a, {config.ap_bandwidth, config.ap_latency});
  return topo;
}

}  // namespace leime::net
