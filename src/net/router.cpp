#include "net/router.h"

#include <algorithm>
#include <stdexcept>

namespace leime::net {

Router::Router(sim::EventQueue& queue, NodeId node)
    : queue_(&queue), node_(node) {}

Router::Port& Router::add_port(NodeId dst, const LinkSpec& spec,
                               double queue_limit_bytes) {
  if (find_port(dst))
    throw std::invalid_argument("net: duplicate port " + to_string(node_) +
                                " -> " + to_string(dst));
  if (queue_limit_bytes < 0.0)
    throw std::invalid_argument("net: queue limit must be >= 0");
  Port port;
  port.dst = dst;
  port.name = to_string(node_) + "_" + to_string(dst);
  port.queue_limit_bytes = queue_limit_bytes;
  port.link = std::make_unique<sim::Link>(*queue_, port.name, spec.bandwidth,
                                          spec.latency);
  ports_.push_back(std::move(port));
  return ports_.back();
}

Router::Port* Router::find_port(NodeId dst) {
  for (auto& port : ports_)
    if (port.dst == dst) return &port;
  return nullptr;
}

bool Router::send(Port& port, double bytes, sim::Completion done) {
  const double now = queue_->now();
  const double backlog = port.link->backlog_bytes(now);
  if (port.queue_limit_bytes > 0.0 && bytes > 0.0 &&
      backlog + bytes > port.queue_limit_bytes) {
    ++port.stats.drops;
    return false;
  }
  ++port.stats.transfers;
  port.stats.bytes += bytes;
  port.stats.busy_time += bytes / port.link->bandwidth_at(now);
  port.stats.peak_backlog_bytes =
      std::max(port.stats.peak_backlog_bytes, backlog + bytes);
  port.link->transfer(bytes, std::move(done));
  return true;
}

}  // namespace leime::net
