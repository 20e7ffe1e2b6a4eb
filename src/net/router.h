// Per-node router: one FIFO output queue per attached link.
//
// A Router owns the output ports of one topology node. Each port wraps a
// sim::Link — so serialization, bandwidth/latency traces and outage windows
// all behave exactly like the flat simulator's links — plus an optional
// admission cap and per-port statistics. Congestion is emergent: when many
// flows target the same port its FIFO backlog grows, and with a queue limit
// set, excess flows are dropped (the fabric surfaces the drop to the
// caller's completion).
//
// Routers do no route computation; net::Fabric resolves routes from the
// Topology and calls send() hop by hop.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/resources.h"

namespace leime::net {

/// Per-port counters, cheap enough to keep always-on. busy_time integrates
/// serialization occupancy (for utilization = busy_time / horizon);
/// peak_backlog_bytes records the high-water mark seen at admission.
struct PortStats {
  std::uint64_t transfers = 0;
  std::uint64_t drops = 0;
  double bytes = 0.0;
  double busy_time = 0.0;
  double peak_backlog_bytes = 0.0;
};

class Router {
 public:
  struct Port {
    NodeId dst;
    std::string name;  ///< "<src>_<dst>", e.g. "dev3_ap0" — metric-safe
    std::uint32_t id = 0;  ///< fabric-wide port id (net::Fabric::port)
    double queue_limit_bytes = 0.0;  ///< 0 = unbounded
    std::unique_ptr<sim::Link> link;
    PortStats stats;
  };

  Router(sim::EventQueue& queue, NodeId node);

  /// Adds the output port toward `dst`. Ports must all be added before the
  /// simulation starts; the returned reference stays valid for the router's
  /// lifetime (ports never shrink).
  Port& add_port(NodeId dst, const LinkSpec& spec, double queue_limit_bytes);

  /// nullptr when this router has no port toward `dst`.
  Port* find_port(NodeId dst);

  /// Admits `bytes` into the port's FIFO. Returns false (and counts a drop)
  /// when a queue limit is set and the backlog plus this transfer would
  /// exceed it; otherwise serializes behind the queued flows and fires
  /// `done` at delivery. Zero-byte transfers are always admitted (control
  /// traffic pays latency, not bandwidth).
  bool send(Port& port, double bytes, sim::Completion done);

  NodeId node() const { return node_; }
  const std::vector<Port>& ports() const { return ports_; }
  std::vector<Port>& ports() { return ports_; }

 private:
  sim::EventQueue* queue_;
  NodeId node_;
  std::vector<Port> ports_;
};

}  // namespace leime::net
