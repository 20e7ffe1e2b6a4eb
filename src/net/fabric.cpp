#include "net/fabric.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"

namespace leime::net {

Fabric::Fabric(sim::EventQueue& queue, const TopologyConfig& config,
               const std::vector<LinkSpec>& device_uplinks,
               LinkSpec edge_cloud, bool duplex)
    : queue_(&queue),
      num_devices_(static_cast<int>(device_uplinks.size())),
      num_aps_(config.aps),
      queue_limit_bytes_(config.queue_limit_bytes) {
  config.validate(device_uplinks.size());
  if (!config.enabled())
    throw std::invalid_argument("net: the fabric needs an enabled topology");
  edge_cloud.validate("edge uplink");
  for (const LinkSpec& up : device_uplinks) up.validate("device uplink");

  const int n = num_devices_;
  const int edge = n + num_aps_;
  nodes_.resize(static_cast<std::size_t>(edge + 1));
  for (int i = 0; i < n; ++i)
    nodes_[i].parent =
        n + (config.device_map.empty() ? i % num_aps_ : config.device_map[i]);
  for (int a = 0; a < num_aps_; ++a) nodes_[n + a].parent = edge;
  nodes_[edge].parent = edge + 1;

  ports_.reserve(duplex ? 2 * nodes_.size() : nodes_.size());
  const auto add = [&](NodeId src, NodeId dst, const LinkSpec& spec) {
    const auto id = static_cast<std::uint32_t>(ports_.size());
    std::string name = to_string(src) + "_" + to_string(dst);
    sim::Link link(queue, name, spec.bandwidth, spec.latency);
    ports_.push_back({std::move(name), id, {}, std::move(link)});
    return id;
  };
  // Ports in id order: by source node, each node's downlinks (duplex) in
  // child order before its uplink.
  for (int i = 0; i < n; ++i)
    nodes_[i].up =
        add(NodeId::device(i), NodeId::ap(ap_of(i)), device_uplinks[i]);
  std::vector<int> by_ap;  // duplex: devices by AP, in index order within one
  if (duplex) {
    by_ap.resize(device_uplinks.size());
    std::iota(by_ap.begin(), by_ap.end(), 0);
    std::stable_sort(by_ap.begin(), by_ap.end(), [&](int x, int y) {
      return nodes_[x].parent < nodes_[y].parent;
    });
  }
  const LinkSpec backhaul{config.ap_bandwidth, config.ap_latency};
  auto child = by_ap.begin();
  for (int a = 0; a < num_aps_; ++a) {
    for (; child != by_ap.end() && nodes_[*child].parent == n + a; ++child)
      nodes_[*child].down = add(NodeId::ap(a), NodeId::device(*child),
                                device_uplinks[*child]);
    nodes_[n + a].up = add(NodeId::ap(a), NodeId::edge(), backhaul);
  }
  if (duplex)
    for (int a = 0; a < num_aps_; ++a)
      nodes_[n + a].down = add(NodeId::edge(), NodeId::ap(a), backhaul);
  nodes_[edge].up = add(NodeId::edge(), NodeId::cloud(), edge_cloud);
  if (duplex)
    nodes_[edge].down = add(NodeId::cloud(), NodeId::edge(), edge_cloud);
}

int Fabric::slot(NodeId node) const {
  const int edge = num_devices_ + num_aps_;
  switch (node.tier) {
    case Tier::kDevice:
      if (node.index >= 0 && node.index < num_devices_) return node.index;
      break;
    case Tier::kAp:
      if (node.index >= 0 && node.index < num_aps_)
        return num_devices_ + node.index;
      break;
    case Tier::kEdge:
      if (node.index == 0) return edge;
      break;
    case Tier::kCloud:
      if (node.index == 0) return edge + 1;
      break;
  }
  throw std::invalid_argument("net: node " + to_string(node) +
                              " is not in the fabric");
}

int Fabric::ap_of(int device) const {
  return nodes_[slot(NodeId::device(device))].parent - num_devices_;
}

Fabric::Port* Fabric::port(NodeId src, NodeId dst) {
  const int s = slot(src);
  const int d = slot(dst);
  const int nodes = static_cast<int>(nodes_.size());
  std::uint32_t id = kNone;
  if (s < nodes && nodes_[s].parent == d)
    id = nodes_[s].up;
  else if (d < nodes && nodes_[d].parent == s)
    id = nodes_[d].down;
  return id == kNone ? nullptr : &ports_[id];
}

Fabric::Route Fabric::route(NodeId src, NodeId dst) const {
  // Climb both endpoints to their lowest common ancestor. A parent's slot
  // is greater than its child's, so the endpoint with the smaller slot is
  // never the ancestor: it climbs. src's climb yields the up-path, dst's
  // the down-path in reverse.
  Route out;
  std::array<std::uint32_t, 3> down{};
  int num_down = 0;
  int a = slot(src);
  int b = slot(dst);
  while (a != b) {
    if (a < b) {
      out.ports[out.count++] = nodes_[a].up;
      a = nodes_[a].parent;
    } else {
      if (nodes_[b].down == kNone)
        throw std::invalid_argument(
            "net: route " + to_string(src) + " -> " + to_string(dst) +
            " needs downlink ports (build the fabric with duplex ports)");
      down[num_down++] = nodes_[b].down;
      b = nodes_[b].parent;
    }
  }
  while (num_down > 0) out.ports[out.count++] = down[--num_down];
  return out;
}

std::uint32_t Fabric::acquire_flow() {
  if (free_head_ != kNone) {
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
  flow.tag = kNoTag;
  flow.next_free = free_head_;
  free_head_ = id;
}

void Fabric::transfer(NodeId src, NodeId dst, double bytes, std::uint64_t tag,
                      Completion done) {
  if (bytes < 0.0) throw std::invalid_argument("net: negative bytes");
  ++stats_.transfers;
  stats_.bytes += bytes;

  const Route path = route(src, dst);
  if (path.count == 0) {
    ++stats_.delivered;
    done(queue_->now());
    return;
  }

  const std::uint32_t id = acquire_flow();
  Flow& flow = flows_[id];
  flow.bytes = bytes;
  flow.done = std::move(done);
  flow.route = path;
  flow.next_hop = 0;
  flow.tag = tag;
  advance(id, queue_->now());
}

void Fabric::advance(std::uint32_t id, double t) {
  Flow& flow = flows_[id];
  // The hop whose completion brought us here (if any) spans
  // [hop_queued, t]; report it before moving the flow on.
  if (hop_tap_ && flow.tag != kNoTag && flow.next_hop > 0)
    hop_tap_(flow.tag, flow.route.ports[flow.next_hop - 1], flow.hop_queued,
             flow.hop_exec, t);
  if (flow.next_hop == flow.route.count) {
    ++stats_.delivered;
    Completion done = std::move(flow.done);
    release_flow(id);  // before invoking: the completion may start new flows
    done(t);
    return;
  }

  Port& port = ports_[flow.route.ports[flow.next_hop++]];
  flow.hop_queued = t;
  // The link serializes after everything already queued on this port; the
  // gap is the hop's wait (an outage hold after that still counts as
  // service — the link resolves outage windows internally).
  flow.hop_exec = std::max(t, port.link.busy_until());
  // Admission: a flow that would push the port's backlog past the queue
  // limit is dropped. Zero-byte control traffic is always admitted (it
  // pays latency, not bandwidth).
  const double now = queue_->now();
  const double backlog = port.link.backlog_bytes(now);
  if (queue_limit_bytes_ > 0.0 && flow.bytes > 0.0 &&
      backlog + flow.bytes > queue_limit_bytes_) {
    ++port.stats.drops;
    ++stats_.drops;
    Completion done = std::move(flow.done);
    release_flow(id);
    done(kDropped);
    return;
  }
  ++port.stats.transfers;
  port.stats.bytes += flow.bytes;
  port.stats.busy_time += flow.bytes / port.link.bandwidth_at(now);
  port.stats.peak_backlog_bytes =
      std::max(port.stats.peak_backlog_bytes, backlog + flow.bytes);
  port.link.transfer(flow.bytes,
                     [this, id](double when) { advance(id, when); });
  ++stats_.hops;
}

RouteState Fabric::route_state(NodeId src, NodeId dst, double t) const {
  const Route path = route(src, dst);
  RouteState out;
  for (int i = 0; i < path.count; ++i) {
    const sim::Link& link = ports_[path.ports[i]].link;
    const double hop_bw = link.bandwidth_at(t);
    out.bandwidth = (i == 0) ? hop_bw : std::min(out.bandwidth, hop_bw);
    out.latency += link.latency_at(t);
    out.backlog_bytes += link.backlog_bytes(t);
  }
  return out;
}

bool Fabric::route_up(NodeId src, NodeId dst, double t) const {
  const Route path = route(src, dst);
  for (int i = 0; i < path.count; ++i)
    if (!ports_[path.ports[i]].link.up_at(t)) return false;
  return true;
}

double Fabric::max_backlog_bytes() const {
  double peak = 0.0;
  for (const Port& port : ports_)
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

  // Per-port series only for the shared tiers, in port id order: each AP's
  // backhaul, then every port of the edge and the cloud (the ids after the
  // last AP's uplink). Device ports would blow up metric cardinality with
  // fleet size, and their state already reaches the controller via the
  // route aggregates.
  const auto add = [&](const Port& port) {
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
  };
  const int edge = num_devices_ + num_aps_;
  for (int a = num_devices_; a < edge; ++a) add(ports_[nodes_[a].up]);
  for (std::size_t id = nodes_[edge - 1].up + 1; id < ports_.size(); ++id)
    add(ports_[id]);
}

}  // namespace leime::net
