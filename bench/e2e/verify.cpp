// Output verification: per-operation digests and result invariants.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "e2e.h"
#include "runtime/sinks.h"

namespace e2e {

namespace {

using leime::sim::SimResult;
using leime::util::Summary;

void fnv1a(std::uint64_t& h, const std::string& bytes) {
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
}

void append_hex(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a,", v);
  out += buf;
}

void append_summary(std::string& out, const Summary& s) {
  out += std::to_string(s.count) + ",";
  for (double v : {s.mean, s.stddev, s.min, s.p50, s.p95, s.p99, s.max})
    append_hex(out, v);
}

bool summary_finite(const Summary& s) {
  for (double v : {s.mean, s.stddev, s.min, s.p50, s.p95, s.p99, s.max})
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace

std::uint64_t op_digest(const std::vector<std::string>& axis_names,
                        const leime::runtime::RunRecord& record) {
  std::ostringstream line;
  leime::runtime::JsonlOptions opts;
  opts.include_timing = false;
  leime::runtime::write_jsonl(line, axis_names, {record}, opts);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv1a(h, line.str());
  // Run-level values the JSONL line leaves out. events_executed stays out:
  // it legitimately differs between sharded and single-queue runs.
  const auto& r = record.result;
  std::string extra;
  append_hex(extra, r.mean_device_queue);
  append_hex(extra, r.mean_edge_queue);
  for (const auto& p : r.timeline) {
    append_hex(extra, p.time);
    append_hex(extra, p.mean_tct);
    extra += std::to_string(p.count) + ";";
  }
  fnv1a(h, extra + "\n");
  std::string dev;
  for (const auto& d : record.result.per_device) {
    dev.clear();
    append_summary(dev, d.tct);
    dev += std::to_string(d.completed) + ",";
    append_hex(dev, d.mean_offload_ratio);
    dev += std::to_string(d.failed_over) + "," + std::to_string(d.retries) +
           "," + std::to_string(d.fallback_slots) + "\n";
    fnv1a(h, dev);
  }
  return h;
}

std::string invariant_error(const SimResult& r, bool require_drained) {
  if (r.generated != r.total_completed + r.in_flight)
    return "generated " + std::to_string(r.generated) +
           " != total_completed " + std::to_string(r.total_completed) +
           " + in_flight " + std::to_string(r.in_flight);
  if (require_drained && r.in_flight != 0)
    return std::to_string(r.in_flight) + " tasks still in flight";
  if (r.completed == 0) return "no counted task completed";
  const double exits = r.exit1_fraction + r.exit2_fraction + r.exit3_fraction;
  if (!(std::fabs(exits - 1.0) <= 1e-12))
    return "exit fractions sum to " + std::to_string(exits);
  bool finite = summary_finite(r.tct);
  for (double v : {r.exit1_fraction, r.exit2_fraction, r.exit3_fraction,
                   r.mean_offload_ratio, r.mean_device_queue,
                   r.mean_edge_queue, r.net.bytes, r.net.max_backlog_bytes})
    finite = finite && std::isfinite(v);
  for (const auto& p : r.timeline)
    finite = finite && std::isfinite(p.time) && std::isfinite(p.mean_tct);
  for (const auto& d : r.per_device)
    finite = finite && summary_finite(d.tct) &&
             std::isfinite(d.mean_offload_ratio);
  if (!finite) return "a NaN or infinite value in the result";
  return "";
}

std::vector<std::uint64_t> read_digests(const std::string& path) {
  std::vector<std::uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::size_t used = 0;
    out.push_back(std::stoull(line, &used, 16));
    if (used != line.size())
      throw std::runtime_error("bad digest line '" + line + "' in " + path);
  }
  return out;
}

void write_digests(const std::string& path,
                   const std::vector<std::uint64_t>& digests) {
  std::ofstream out(path);
  for (std::uint64_t d : digests) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64 "\n", d);
    out << buf;
  }
  out.flush();
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

}  // namespace e2e
