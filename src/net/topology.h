// Declarative network topology for the routed multi-hop fabric.
//
// The paper's testbed (and the flat simulator path) models device <-> edge
// <-> cloud as point-to-point links, so congestion has to be scripted via
// bandwidth traces. Real "in the wild" deployments share backhaul: many
// devices associate with one access point, several access points uplink
// into one edge server, and contention among flows is what actually creates
// congestion. This header describes that tree declaratively:
//
//     device --wireless--> access point --backhaul--> edge --WAN--> cloud
//
// There is one edge (the paper's single edge server), so the tree is fixed
// above the access points. A Topology is pure data — node counts, the
// device -> AP attachment map and per-link bandwidth/latency specs — with
// static route computation (the tree makes every route unique).
// net::Fabric (fabric.h) instantiates it into routers with per-output-port
// FIFO queues on a sim::EventQueue.
//
// TopologyConfig is the INI-facing subset carried by sim::ScenarioConfig
// (the `[topology]` section): it only describes the access-point tier; the
// device and edge-cloud link parameters come from the scenario's existing
// DeviceSpec / edge fields so a degenerate topology (one device per AP,
// effectively infinite AP bandwidth) reproduces the flat model.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
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

/// The expanded tree: every node attached, every link specced. Built either
/// directly (tests, exotic layouts) or via from_config (the simulator).
class Topology {
 public:
  /// num_devices >= 0 devices and num_aps >= 1 access points under the one
  /// edge, whose cloud uplink is `edge_cloud`. Attachments start unset;
  /// validate() throws while any are missing.
  Topology(int num_devices, int num_aps, LinkSpec edge_cloud);

  void attach_device(int device, int ap, LinkSpec up);
  void attach_ap(int ap, LinkSpec up);

  /// Throws std::invalid_argument when any device or AP is unattached.
  /// A scan of the whole tree: call it once, after the last attachment
  /// (net::Fabric's constructor does).
  void validate() const;

  int num_devices() const { return num_devices_; }
  int num_aps() const { return num_aps_; }

  int ap_of(int device) const { return ap_of_device_[device]; }
  const LinkSpec& device_up(int device) const { return device_up_[device]; }
  const LinkSpec& ap_up(int ap) const { return ap_up_[ap]; }
  const LinkSpec& edge_up() const { return edge_up_; }

  /// Parent in the tree; cloud has none (throws).
  NodeId parent(NodeId node) const;

  /// The unique tree route src -> dst as a sequence of directed hops
  /// (src-of-hop, dst-of-hop). Hops toward the root use the uplink specs;
  /// hops away from the root are the mirror (duplex) direction, which the
  /// fabric only materializes when built with duplex ports. Climbs only the
  /// two endpoints' branches (O(depth)); it does not validate() the tree.
  struct Route {
    static constexpr int kMaxHops = 6;  ///< device -> cloud -> device
    std::array<std::pair<NodeId, NodeId>, kMaxHops> hops;
    int count = 0;
  };
  Route route(NodeId src, NodeId dst) const;

  /// Expands a TopologyConfig: per-device wireless uplinks from
  /// `device_uplinks`, AP backhaul from the config, the edge -> cloud link
  /// from `edge_cloud`. The config must be enabled() and validate() against
  /// device_uplinks.size().
  static Topology from_config(const TopologyConfig& config,
                              const std::vector<LinkSpec>& device_uplinks,
                              LinkSpec edge_cloud);

 private:
  int num_devices_;
  int num_aps_;
  std::vector<int> ap_of_device_;
  std::vector<LinkSpec> device_up_;
  std::vector<LinkSpec> ap_up_;  ///< bandwidth 0 = not attached yet
  LinkSpec edge_up_;
};

}  // namespace leime::net
