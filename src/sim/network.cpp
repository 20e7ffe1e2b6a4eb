#include "sim/network.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace leime::sim {

Network::Network(EventQueue& queue, const ScenarioConfig& cfg, std::size_t lo,
                 std::size_t hi, std::vector<HubRequest>* outbox)
    : queue_(queue), cfg_(cfg), lo_(lo), hi_(hi), outbox_(outbox) {
  if (!(cfg.shared_uplink_bw >= 0.0 && std::isfinite(cfg.shared_uplink_bw)))
    throw std::invalid_argument("ScenarioConfig: bad shared_uplink_bw");
  cfg.topology.validate(cfg.devices.size());
  if (cfg.topology.enabled() && cfg.shared_uplink_bw > 0.0)
    throw std::invalid_argument(
        "ScenarioConfig: topology and shared_uplink_bw are mutually "
        "exclusive network modes");
  if (!cfg.faults.ap_windows.empty()) {
    if (!cfg.topology.enabled())
      throw std::invalid_argument(
          "ScenarioConfig: ap_outage_windows need an enabled [topology]");
    for (const auto& w : cfg.faults.ap_windows)
      if (w.device >= cfg.topology.aps)
        throw std::invalid_argument(
            "ScenarioConfig: ap_outage_windows names AP " +
            std::to_string(w.device) + " but the topology has " +
            std::to_string(cfg.topology.aps) + " APs");
  }

  const bool results = cfg.result_bytes > 0.0;
  if (cfg.topology.enabled()) {
    std::vector<net::LinkSpec> uplinks;
    for (const auto& spec : cfg.devices)
      uplinks.push_back({spec.uplink_bw, spec.uplink_lat});
    fabric_ = std::make_unique<net::Fabric>(
        queue, cfg.topology, uplinks,
        net::LinkSpec{cfg.edge_cloud_bw, cfg.edge_cloud_lat}, results);
  } else {
    // Every upload of the shared-AP mode crosses the AP, so its devices
    // get no uplink of their own. Reserved up front: a link's pending
    // transfers point back at it.
    const bool shared = cfg.shared_uplink_bw > 0.0;
    if (!shared) uplinks_.reserve(hi - lo);
    if (results) downlinks_.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& spec = cfg.devices[i];
      if (!shared)
        uplinks_.emplace_back(queue, "uplink" + std::to_string(i),
                              spec.uplink_bw, spec.uplink_lat);
      if (results)
        downlinks_.emplace_back(queue, "downlink" + std::to_string(i),
                                spec.uplink_bw, spec.uplink_lat);
    }
    if (shared)
      shared_ap_.emplace(queue, "shared-ap", cfg.shared_uplink_bw, 0.0);
    if (!outbox)
      edge_cloud_.emplace(queue, "edge-cloud", cfg.edge_cloud_bw,
                          cfg.edge_cloud_lat);
    if (results)
      cloud_return_.emplace(queue, "cloud-return", cfg.edge_cloud_bw,
                            cfg.edge_cloud_lat);
  }
  // The device's wireless hop, the fabric's device -> AP port or its own
  // flat uplink, follows the device's traces either way. The shared-AP
  // mode has no such hop, so it only checks them as a Link would.
  for (std::size_t i = lo; i < hi; ++i) {
    const auto& spec = cfg.devices[i];
    if (shared_ap_) {
      validate_link(spec.uplink_bw, spec.uplink_lat,
                    spec.uplink_bw_trace ? &*spec.uplink_bw_trace : nullptr,
                    spec.uplink_lat_trace ? &*spec.uplink_lat_trace : nullptr);
      continue;
    }
    Link& wireless = fabric_ ? fabric_->port(node(Tier::kDevice, i),
                                             net::NodeId::ap(ap_of(i)))
                                   ->link
                             : uplinks_[i - lo];
    if (spec.uplink_bw_trace)
      wireless.set_bandwidth_trace(*spec.uplink_bw_trace);
    if (spec.uplink_lat_trace)
      wireless.set_latency_trace(*spec.uplink_lat_trace);
  }
}

std::size_t Network::ap_of(std::size_t i) const {
  return static_cast<std::size_t>(fabric_->ap_of(static_cast<int>(i)));
}

void Network::apply_faults(const FaultTimeline& timeline) {
  auto to_pairs = [](const std::vector<FaultWindow>& windows) {
    std::vector<std::pair<double, double>> out;
    for (const auto& w : windows) out.push_back({w.start, w.end});
    return out;
  };
  if (fabric_) {
    // Per-device wireless outages land on the device's own port; AP
    // outages hold the backhaul port's queued bytes. Duplex mirrors get
    // the same windows (the radio/backhaul is down in both directions).
    auto set_both = [&](net::NodeId a, net::NodeId b,
                        const std::vector<FaultWindow>& windows) {
      const auto pairs = to_pairs(windows);
      fabric_->port(a, b)->link.set_outage_windows(pairs);
      if (auto* down = fabric_->port(b, a))
        down->link.set_outage_windows(pairs);
    };
    for (std::size_t i = lo_; i < hi_; ++i)
      set_both(node(Tier::kDevice, i), net::NodeId::ap(ap_of(i)),
               timeline.link_down[i]);
    std::vector<std::vector<FaultWindow>> ap_windows(
        static_cast<std::size_t>(cfg_.topology.aps));
    for (const auto& w : timeline.ap_down) {
      if (w.device < 0)
        for (auto& lane : ap_windows) lane.push_back(w);
      else
        ap_windows[static_cast<std::size_t>(w.device)].push_back(w);
    }
    for (std::size_t a = 0; a < ap_windows.size(); ++a) {
      ap_windows[a] = merge_windows(std::move(ap_windows[a]));
      if (ap_windows[a].empty()) continue;
      set_both(net::NodeId::ap(static_cast<int>(a)), net::NodeId::edge(),
               ap_windows[a]);
    }
  } else if (shared_ap_) {
    // Shared medium: every outage window silences the one AP.
    std::vector<FaultWindow> all;
    for (const auto& lane : timeline.link_down)
      all.insert(all.end(), lane.begin(), lane.end());
    shared_ap_->set_outage_windows(to_pairs(merge_windows(std::move(all))));
  } else {
    for (std::size_t i = lo_; i < hi_; ++i)
      uplinks_[i - lo_].set_outage_windows(to_pairs(timeline.link_down[i]));
  }
}

bool Network::link_up(std::size_t i, double t) const {
  // The links hold the outage windows apply_faults gave them.
  if (fabric_)
    return fabric_->route_up(node(Tier::kDevice, i), net::NodeId::edge(), t);
  return tx(i).up_at(t);
}

net::RouteState Network::observe(std::size_t i, double t) const {
  // The fabric's route aggregates stand in for the single-link
  // observation: the bottleneck bandwidth, total propagation latency and
  // total queued backlog along device -> edge. A crowded AP backhaul thus
  // feeds straight into the eq. 8 budget and steers the controller exactly
  // like a shaped flat uplink would.
  if (fabric_)
    return fabric_->route_state(node(Tier::kDevice, i), net::NodeId::edge(),
                                t);
  const Link& link = tx(i);
  return {link.bandwidth_at(t), link.latency_at(t) + tx_extra_latency(i),
          link.backlog_bytes(t)};
}

Network::Leg Network::leg(Tier from, Tier to, std::size_t i) {
  Leg out;
  out.from = from;
  out.to = to;
  out.device = i;
  out.busy = queue_.now();
  if (fabric_) {
    out.track = "fabric";
  } else if (to == Tier::kCloud && outbox_) {
    out.track = "edge-cloud";
  } else {
    out.link = from == Tier::kDevice  ? &tx(i)
               : to == Tier::kCloud   ? &*edge_cloud_
               : from == Tier::kCloud ? &*cloud_return_
                                      : &downlinks_[i - lo_];
    out.track = out.link->name();
    out.busy = out.link->busy_until();
  }
  return out;
}

void Network::send(const Leg& leg, double bytes, std::size_t task,
                   int attempt, Completion done) {
  if (leg.link) {
    leg.link->transfer(
        bytes, leg.from == Tier::kDevice ? tx_extra_latency(leg.device) : 0.0,
        std::move(done));
  } else if (fabric_) {
    fabric_->transfer(node(leg.from, leg.device), node(leg.to, leg.device),
                      bytes, flow_tag(task, attempt), std::move(done));
  } else {
    outbox_->push_back({queue_.now(), leg.device, task, attempt});
  }
}

void Network::report(Observer& obs, double t) const {
  if (fabric_) obs.on_net_fabric(*fabric_, t);
}

SimResult::NetStats Network::stats() const {
  if (!fabric_) return {};
  const auto& ns = fabric_->stats();
  return {true,     ns.transfers, ns.delivered, ns.hops,
          ns.drops, ns.bytes,     fabric_->max_backlog_bytes()};
}

}  // namespace leime::sim
