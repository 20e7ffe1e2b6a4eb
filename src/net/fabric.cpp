#include "net/fabric.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/check.h"

namespace leime::net {
namespace {

std::uint32_t pack_node(NodeId node) {
  return (static_cast<std::uint32_t>(node.tier) << 24) |
         (static_cast<std::uint32_t>(node.index) & 0x00ffffffu);
}

std::uint64_t route_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(pack_node(src)) << 32) |
         static_cast<std::uint64_t>(pack_node(dst));
}

}  // namespace

Fabric::Fabric(sim::EventQueue& queue, Topology topology, Options options)
    : queue_(&queue), topology_(std::move(topology)), options_(options) {
  topology_.validate();
  if (options_.queue_limit_bytes < 0.0)
    throw std::invalid_argument("net: queue limit must be >= 0");

  const int n = topology_.num_devices();
  const int a = topology_.num_aps();
  routers_.reserve(static_cast<std::size_t>(n + a + 2));
  for (int i = 0; i < n; ++i) routers_.emplace_back(*queue_, NodeId::device(i));
  for (int i = 0; i < a; ++i) routers_.emplace_back(*queue_, NodeId::ap(i));
  routers_.emplace_back(*queue_, NodeId::edge());
  routers_.emplace_back(*queue_, NodeId::cloud());

  const auto connect = [&](NodeId child, NodeId parent, const LinkSpec& up) {
    router(child).add_port(parent, up, options_.queue_limit_bytes);
    if (options_.duplex)
      router(parent).add_port(child, up, options_.queue_limit_bytes);
  };
  for (int i = 0; i < n; ++i)
    connect(NodeId::device(i), NodeId::ap(topology_.ap_of(i)),
            topology_.device_up(i));
  for (int i = 0; i < a; ++i)
    connect(NodeId::ap(i), NodeId::edge(), topology_.ap_up(i));
  connect(NodeId::edge(), NodeId::cloud(), topology_.edge_up());
  // Every port exists now, so the addresses below stay valid.
  for (Router& r : routers_)
    for (Router::Port& port : r.ports()) {
      port.id = static_cast<std::uint32_t>(ports_.size());
      ports_.push_back(&port);
    }
}

Router& Fabric::router(NodeId node) {
  const int n = topology_.num_devices();
  const int a = topology_.num_aps();
  std::size_t index = 0;
  switch (node.tier) {
    case Tier::kDevice:
      LEIME_CHECK(node.index >= 0 && node.index < n);
      index = static_cast<std::size_t>(node.index);
      break;
    case Tier::kAp:
      LEIME_CHECK(node.index >= 0 && node.index < a);
      index = static_cast<std::size_t>(n + node.index);
      break;
    case Tier::kEdge:
      index = static_cast<std::size_t>(n + a);
      break;
    case Tier::kCloud:
      index = static_cast<std::size_t>(n + a + 1);
      break;
  }
  return routers_[index];
}

sim::Link* Fabric::link(NodeId src, NodeId dst) {
  Router::Port* port = router(src).find_port(dst);
  return port ? port->link.get() : nullptr;
}

const Fabric::CachedRoute& Fabric::resolve(NodeId src, NodeId dst) {
  const std::uint64_t key = route_key(src, dst);
  const auto it = route_cache_.find(key);
  if (it != route_cache_.end()) return it->second;

  const Topology::Route route = topology_.route(src, dst);
  CachedRoute cached;
  cached.count = route.count;
  for (int i = 0; i < route.count; ++i) {
    const auto& [hop_src, hop_dst] = route.hops[static_cast<std::size_t>(i)];
    Router& hop_router = router(hop_src);
    Router::Port* port = hop_router.find_port(hop_dst);
    if (!port)
      throw std::invalid_argument(
          "net: route " + to_string(src) + " -> " + to_string(dst) +
          " needs the downlink port " + to_string(hop_src) + " -> " +
          to_string(hop_dst) + " (build the fabric with duplex ports)");
    cached.hops[static_cast<std::size_t>(i)] = {&hop_router, port};
  }
  return route_cache_.emplace(key, cached).first->second;
}

std::uint32_t Fabric::acquire_flow() {
  if (free_head_ != kNoFlow) {
    const std::uint32_t id = free_head_;
    free_head_ = flows_[id].next_free;
    return id;
  }
  flows_.emplace_back();
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

void Fabric::release_flow(std::uint32_t id) {
  Flow& flow = flows_[id];
  flow.done.reset();
  flow.route = nullptr;
  flow.tag = kNoTag;
  flow.next_free = free_head_;
  free_head_ = id;
}

void Fabric::transfer(NodeId src, NodeId dst, double bytes, std::uint64_t tag,
                      Completion done) {
  if (bytes < 0.0) throw std::invalid_argument("net: negative bytes");
  ++stats_.transfers;
  stats_.bytes += bytes;

  const CachedRoute& route = resolve(src, dst);
  if (route.count == 0) {
    ++stats_.delivered;
    done(queue_->now());
    return;
  }

  const std::uint32_t id = acquire_flow();
  Flow& flow = flows_[id];
  flow.bytes = bytes;
  flow.done = std::move(done);
  flow.route = &route;
  flow.next_hop = 0;
  flow.tag = tag;
  advance(id, queue_->now());
}

void Fabric::advance(std::uint32_t id, double t) {
  Flow& flow = flows_[id];
  // The hop whose completion brought us here (if any) spans
  // [hop_queued, t]; report it before moving the flow on.
  if (hop_tap_ && flow.tag != kNoTag && flow.next_hop > 0) {
    const Hop& prev =
        flow.route->hops[static_cast<std::size_t>(flow.next_hop - 1)];
    hop_tap_(flow.tag, prev.port->id, flow.hop_queued, flow.hop_exec, t);
  }
  if (flow.next_hop == flow.route->count) {
    ++stats_.delivered;
    Completion done = std::move(flow.done);
    release_flow(id);  // before invoking: the completion may start new flows
    done(t);
    return;
  }

  const Hop& hop =
      flow.route->hops[static_cast<std::size_t>(flow.next_hop)];
  ++flow.next_hop;
  flow.hop_queued = t;
  // The link serializes after everything already queued on this port; the
  // gap is the hop's wait (an outage hold after that still counts as
  // service — the link resolves outage windows internally).
  flow.hop_exec = std::max(t, hop.port->link->busy_until());
  const bool sent = hop.router->send(
      *hop.port, flow.bytes,
      [this, id](double when) { advance(id, when); });
  if (!sent) {
    ++stats_.drops;
    Completion done = std::move(flow.done);
    release_flow(id);
    done(kDropped);
    return;
  }
  ++stats_.hops;
}

RouteState Fabric::route_state(NodeId src, NodeId dst, double t) const {
  const auto& route = const_cast<Fabric*>(this)->resolve(src, dst);
  RouteState out;
  for (int i = 0; i < route.count; ++i) {
    const sim::Link& link = *route.hops[static_cast<std::size_t>(i)].port->link;
    const double hop_bw = link.bandwidth_at(t);
    out.bandwidth = (i == 0) ? hop_bw : std::min(out.bandwidth, hop_bw);
    out.latency += link.latency_at(t);
    out.backlog_bytes += link.backlog_bytes(t);
  }
  return out;
}

bool Fabric::route_up(NodeId src, NodeId dst, double t) const {
  const auto& route = const_cast<Fabric*>(this)->resolve(src, dst);
  for (int i = 0; i < route.count; ++i)
    if (!route.hops[static_cast<std::size_t>(i)].port->link->up_at(t))
      return false;
  return true;
}

double Fabric::max_backlog_bytes() const {
  double peak = 0.0;
  for (const Router& r : routers_)
    for (const auto& port : r.ports())
      peak = std::max(peak, port.stats.peak_backlog_bytes);
  return peak;
}

void Fabric::export_metrics(obs::MetricsRegistry& registry,
                            double horizon) const {
  registry
      .counter("leime_net_transfers_total", "fabric flows started")
      .inc(stats_.transfers);
  registry
      .counter("leime_net_delivered_total", "fabric flows delivered")
      .inc(stats_.delivered);
  registry.counter("leime_net_drops_total", "fabric flows dropped").inc(
      stats_.drops);
  registry.counter("leime_net_hops_total", "fabric hop transfers").inc(
      stats_.hops);
  registry.gauge("leime_net_bytes_total", "fabric payload bytes")
      .set(stats_.bytes);
  registry.gauge("leime_net_max_backlog_bytes", "peak port backlog")
      .set(max_backlog_bytes());

  // Per-port series only for the shared tiers (AP/edge/cloud endpoints):
  // device ports would blow up metric cardinality with fleet size, and
  // their state already reaches the controller via the route aggregates.
  for (const Router& r : routers_) {
    if (r.node().tier == Tier::kDevice) continue;
    for (const auto& port : r.ports()) {
      if (port.dst.tier == Tier::kDevice) continue;
      const std::string prefix = "leime_net_port_" + port.name;
      registry.counter(prefix + "_transfers_total", "port transfers")
          .inc(port.stats.transfers);
      registry.counter(prefix + "_drops_total", "port drops")
          .inc(port.stats.drops);
      registry.gauge(prefix + "_bytes_total", "port payload bytes")
          .set(port.stats.bytes);
      registry.gauge(prefix + "_peak_backlog_bytes", "port backlog high water")
          .set(port.stats.peak_backlog_bytes);
      registry.gauge(prefix + "_utilization", "busy time / horizon")
          .set(horizon > 0.0 ? port.stats.busy_time / horizon : 0.0);
    }
  }
}

}  // namespace leime::net
