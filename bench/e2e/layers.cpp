// Per-layer metrics: the traced repetition's prof::Report tree mapped onto
// the layer names of README.md, plus deterministic counts from the untraced
// SimResults.
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "e2e.h"

namespace e2e {

namespace {

using leime::prof::Report;
using leime::prof::ReportNode;

/// Per-section-name totals over every node of a prof::Report tree (all
/// threads, all depths).
struct SectionTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

void accumulate(const ReportNode& node,
                std::map<std::string, SectionTotals>& out) {
  auto& t = out[node.name];
  t.count += node.count;
  t.total_s += static_cast<double>(node.total_ns) * 1e-9;
  t.self_s += static_cast<double>(node.self_ns) * 1e-9;
  for (const auto& child : node.children) accumulate(child, out);
}

double total_of(const std::map<std::string, SectionTotals>& s,
                const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second.total_s;
}

double self_with_prefix(const std::map<std::string, SectionTotals>& s,
                        const std::string& prefix) {
  double sum = 0.0;
  for (const auto& [name, t] : s)
    if (name.rfind(prefix, 0) == 0) sum += t.self_s;
  return sum;
}

std::uint64_t prof_counter(const Report& rep, const std::string& name) {
  for (const auto& [n, v] : rep.counters)
    if (n == name) return v;
  return 0;
}

std::uint64_t metric_counter(const leime::sim::SimResult& r,
                             const std::string& name) {
  for (const auto& c : r.metrics.counters)
    if (c.name == name) return c.value;
  return 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Σ over roots named leime.bench.*: the benchmark's own spans around the
/// public calls, which run on the calling thread only.
double bench_span_total(const Report& rep) {
  double sum = 0.0;
  for (const auto& root : rep.roots)
    if (root.name.rfind("leime.bench.", 0) == 0)
      sum += static_cast<double>(root.total_ns) * 1e-9;
  return sum;
}

std::map<std::string, SectionTotals> section_totals(const Report& report) {
  std::map<std::string, SectionTotals> out;
  for (const auto& root : report.roots) accumulate(root, out);
  return out;
}

}  // namespace

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const Report& rep = *in.report;
  const auto s = section_totals(rep);

  double events = 0, generated = 0, completed = 0, in_flight = 0;
  double retries = 0, failed_over = 0, local_fallbacks = 0;
  double transfers = 0, delivered = 0, hops = 0, drops = 0;
  double prov = 0, attr = 0, slo_fires = 0;
  double cache_hits = 0, cache_misses = 0, batch_groups = 0, batch_reused = 0;
  for (const auto& rec : in.records) {
    const auto& r = rec.result;
    events += static_cast<double>(r.events_executed);
    generated += static_cast<double>(r.generated);
    completed += static_cast<double>(r.total_completed);
    in_flight += static_cast<double>(r.in_flight);
    retries += static_cast<double>(r.faults.retries);
    failed_over += static_cast<double>(r.faults.failed_over);
    local_fallbacks += static_cast<double>(r.faults.local_fallbacks);
    transfers += static_cast<double>(r.net.transfers);
    delivered += static_cast<double>(r.net.delivered);
    hops += static_cast<double>(r.net.hops);
    drops += static_cast<double>(r.net.drops);
    prov += static_cast<double>(r.provenance.sampled);
    attr += static_cast<double>(r.attribution.tasks);
    for (const auto& c : r.slo.classes)
      slo_fires += static_cast<double>(c.alerts_fired);
    cache_hits += static_cast<double>(
        metric_counter(r, "leime_policy_cache_hits_total"));
    cache_misses += static_cast<double>(
        metric_counter(r, "leime_policy_cache_misses_total"));
    batch_groups += static_cast<double>(
        metric_counter(r, "leime_policy_batch_groups_total"));
    batch_reused += static_cast<double>(
        metric_counter(r, "leime_policy_batch_reused_total"));
  }

  const double loop_s = total_of(s, "leime.sim.event_loop");
  const double sharded_s = total_of(s, "leime.sim.run_sharded");
  const double unattributed =
      1.0 - ratio(bench_span_total(rep), in.traced_total_s);
  return {
      {"util.ini.parse_s", "s", total_of(s, "leime.bench.ini_parse")},
      {"util.ini.bytes", "bytes", static_cast<double>(in.ini_bytes)},
      {"sim.scenario_ini.load_s", "s",
       total_of(s, "leime.bench.load_scenario")},
      {"core.exit_setting.bb_s", "s",
       total_of(s, "leime.core.exit_setting.bb")},
      {"core.exit_setting.bb_evals", "count",
       static_cast<double>(
           prof_counter(rep, "leime.core.exit_setting.bb.evals"))},
      {"sim.build_s", "s", total_of(s, "leime.sim.build")},
      {"sim.finalize_s", "s", total_of(s, "leime.sim.finalize")},
      {"sim.event_loop_s", "s", loop_s},
      {"sim.des.queue_self_s", "s", self_with_prefix(s, "leime.sim.queue.")},
      {"sim.handlers_self_s", "s", self_with_prefix(s, "leime.sim.ev.")},
      {"sim.des.ns_per_event", "ns", 1e9 * ratio(loop_s, events)},
      {"sim.events_executed", "count", events},
      {"sim.tasks_generated", "count", generated},
      {"sim.tasks_completed", "count", completed},
      {"sim.in_flight", "count", in_flight},
      {"sim.decide_s", "s", total_of(s, "leime.sim.decide")},
      {"policy.decide_fleet_s", "s", total_of(s, "leime.policy.decide_fleet")},
      {"policy.cache_hit_ratio", "ratio",
       ratio(cache_hits, cache_hits + cache_misses)},
      {"policy.batch_reuse_ratio", "ratio",
       ratio(batch_reused, batch_groups + batch_reused)},
      {"policy.warm_start_bb_evals", "count",
       static_cast<double>(
           prof_counter(rep, "leime.policy.warm_start_bb.evals"))},
      {"sim.faults.retries", "count", retries},
      {"sim.faults.failed_over", "count", failed_over},
      {"sim.faults.local_fallbacks", "count", local_fallbacks},
      {"net.transfers", "count", transfers},
      {"net.hops", "count", hops},
      {"net.drops", "count", drops},
      {"net.delivered_ratio", "ratio", ratio(delivered, transfers)},
      {"obs.overhead_frac", "ratio",
       in.obs_off_run_s > 0.0 ? in.untraced_run_s / in.obs_off_run_s - 1.0
                              : 0.0},
      {"obs.prov_records", "count", prov},
      {"obs.attr_tasks", "count", attr},
      {"obs.slo_fires", "count", slo_fires},
      {"sim.shard.run_sharded_s", "s", sharded_s},
      {"sim.shard.speedup", "x", ratio(in.unsharded_run_s, in.untraced_run_s)},
      {"runtime.plan.expand_s", "s", total_of(s, "leime.bench.plan_expand")},
      {"runtime.executor.run_s", "s",
       total_of(s, "leime.bench.executor_run")},
      {"runtime.executor.busy_frac", "ratio", in.executor_busy_frac},
      {"runtime.sinks.jsonl_s", "s", total_of(s, "leime.bench.sink_jsonl")},
      {"trace.overhead_frac", "ratio",
       ratio(in.traced_total_s, in.untraced_total_s) - 1.0},
      {"trace.unattributed_frac", "ratio", unattributed},
      {"trace.dropped_spans", "count",
       static_cast<double>(rep.dropped_spans)},
  };
}

void write_layers_json(const std::string& path, const LayerInputs& in) {
  std::ofstream out(path);
  out << "{\"workload\":\"" << in.workload << "\",\"traced_total_s\":"
      << json_number(in.traced_total_s) << ",\"untraced_total_s\":"
      << json_number(in.untraced_total_s) << ",\"sections\":[";
  bool first = true;
  for (const auto& [name, t] : section_totals(*in.report)) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << name
        << "\",\"count\":" << t.count
        << ",\"total_s\":" << json_number(t.total_s)
        << ",\"self_s\":" << json_number(t.self_s)
        << ",\"share\":" << json_number(ratio(t.total_s, in.traced_total_s))
        << "}";
    first = false;
  }
  out << "\n],\"metrics\":{";
  first = true;
  for (const auto& m : layer_metrics(in)) {
    out << (first ? "\n" : ",\n") << "\"" << m.name << "\":{\"value\":"
        << json_number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  out << "\n}}\n";
  out.flush();
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

}  // namespace e2e
