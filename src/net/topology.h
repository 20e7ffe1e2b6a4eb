// Declarative network topology for the routed multi-hop fabric.
//
// The paper's testbed (and the flat simulator path) models device <-> edge
// <-> cloud as point-to-point links, so congestion has to be scripted via
// bandwidth traces. Real "in the wild" deployments share backhaul: many
// devices associate with one access point, several access points uplink
// into one edge server, and contention among flows is what actually creates
// congestion. The tree is fixed:
//
//     device --wireless--> access point --backhaul--> edge --WAN--> cloud
//
// There is one edge (the paper's single edge server), so only the access
// point tier has a shape: how many APs, their backhaul and which AP each
// device joins. This header holds the node names and that shape;
// net::Fabric (fabric.h) builds the tree's ports from it on a
// sim::EventQueue.
//
// TopologyConfig is the INI-facing subset carried by sim::ScenarioConfig
// (the `[topology]` section): it only describes the access-point tier; the
// device and edge-cloud link parameters come from the scenario's existing
// DeviceSpec / edge fields so a degenerate topology (one device per AP,
// effectively infinite AP bandwidth) reproduces the flat model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace leime::net {

/// Node tiers, ordered leaf-to-root (device is deepest in the tree).
enum class Tier : std::uint8_t { kDevice = 0, kAp, kEdge, kCloud };

const char* to_string(Tier tier);

/// Identifies one node: a tier plus an index within the tier (the edge and
/// the cloud are single nodes; their index is always 0).
struct NodeId {
  Tier tier = Tier::kDevice;
  int index = 0;

  static NodeId device(int i) { return {Tier::kDevice, i}; }
  static NodeId ap(int i) { return {Tier::kAp, i}; }
  static NodeId edge() { return {Tier::kEdge, 0}; }
  static NodeId cloud() { return {Tier::kCloud, 0}; }

  friend bool operator==(const NodeId&, const NodeId&) = default;
};

/// Stable lowercase name, e.g. "dev3", "ap0", "edge0", "cloud" — also the
/// building block of port and metric names (^[a-z0-9_]+$ by construction).
std::string to_string(NodeId node);

/// One directed link's parameters. Bandwidth in bytes/s (> 0), latency in
/// seconds (>= 0) — the same conventions as sim::Link.
struct LinkSpec {
  double bandwidth = 0.0;
  double latency = 0.0;

  /// Throws std::invalid_argument naming `what` unless the bandwidth is
  /// finite and > 0 and the latency finite and >= 0.
  void validate(const char* what) const;

  friend bool operator==(const LinkSpec&, const LinkSpec&) = default;
};

/// The `[topology]` INI section: how the access-point tier is shaped.
/// aps == 0 leaves the fabric disabled (the flat point-to-point path, the
/// golden-compatibility baseline).
struct TopologyConfig {
  int aps = 0;                ///< number of access points (0 = disabled)
  double ap_bandwidth = 0.0;  ///< AP -> edge backhaul, bytes/s (> 0)
  double ap_latency = 0.0;    ///< AP -> edge propagation, seconds (>= 0)

  /// Explicit device -> AP attachment; empty means round-robin
  /// (device i joins AP i % aps).
  std::vector<int> device_map;

  /// Per-port queue cap in bytes; a transfer whose admission would push a
  /// port's backlog past the cap is dropped (counted, completion fires
  /// with Fabric::kDropped). 0 = unbounded queues (no drops).
  double queue_limit_bytes = 0.0;

  bool enabled() const { return aps > 0; }

  /// Throws std::invalid_argument on aps < 0, non-positive bandwidth,
  /// negative latency/limit, or a device_map of the wrong size / range.
  void validate(std::size_t num_devices) const;

  friend bool operator==(const TopologyConfig&,
                         const TopologyConfig&) = default;
};

}  // namespace leime::net
