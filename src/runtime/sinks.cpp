#include "runtime/sinks.h"

#include <ostream>
#include <stdexcept>

#include "prof/profiler.h"
#include "util/csv.h"
#include "util/output.h"

namespace leime::runtime {

using util::json_escape;
using util::num;

namespace {

void check_widths(const std::vector<std::string>& axis_names,
                  const std::vector<RunRecord>& records) {
  for (const auto& rec : records)
    if (rec.labels.size() != axis_names.size())
      throw std::invalid_argument(
          "runtime sinks: record label count does not match axis names");
}

/// Inline metrics object for a JSONL record: counters and gauges by name,
/// histograms as summary objects. Only called for non-empty snapshots so
/// disabled runs keep their exact pre-observability bytes.
void metrics_to_json(const obs::Snapshot& snap, std::ostream& out) {
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& c : snap.counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(c.name) << "\":" << c.value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& g : snap.gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(g.name) << "\":" << num(g.value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(h.name) << "\":{\"count\":" << h.stats.count()
        << ",\"sum\":" << num(h.stats.sum())
        << ",\"min\":" << num(h.stats.min())
        << ",\"max\":" << num(h.stats.max()) << ",\"p50\":" << num(h.p50)
        << ",\"p95\":" << num(h.p95) << ",\"p99\":" << num(h.p99) << "}";
  }
  out << "}}";
}

}  // namespace

void write_csv(const std::string& path,
               const std::vector<std::string>& axis_names,
               const std::vector<RunRecord>& records) {
  LEIME_PROF_SCOPE("leime.runtime.sink.csv");
  check_widths(axis_names, records);
  std::vector<std::string> header = axis_names;
  for (const char* col :
       {"replication", "seed", "mean_tct", "stddev_tct", "p50_tct", "p95_tct",
        "p99_tct", "generated", "completed", "exit1_frac", "exit2_frac",
        "exit3_frac", "mean_offload_ratio", "total_completed", "in_flight",
        "failed_over", "retries", "fallback_slots", "start_s", "end_s",
        "worker"})
    header.push_back(col);
  util::CsvWriter csv(path, header);
  for (const auto& rec : records) {
    std::vector<std::string> row = rec.labels;
    row.push_back(std::to_string(rec.replication));
    row.push_back(std::to_string(rec.seed));
    for (double v : {rec.result.tct.mean, rec.result.tct.stddev,
                     rec.result.tct.p50, rec.result.tct.p95,
                     rec.result.tct.p99})
      row.push_back(num(v));
    row.push_back(std::to_string(rec.result.generated));
    row.push_back(std::to_string(rec.result.completed));
    for (double v : {rec.result.exit1_fraction, rec.result.exit2_fraction,
                     rec.result.exit3_fraction, rec.result.mean_offload_ratio})
      row.push_back(num(v));
    for (std::size_t v :
         {rec.result.total_completed, rec.result.in_flight,
          rec.result.faults.failed_over, rec.result.faults.retries,
          rec.result.faults.fallback_slots})
      row.push_back(std::to_string(v));
    row.push_back(num(rec.start_s));
    row.push_back(num(rec.end_s));
    row.push_back(std::to_string(rec.worker));
    csv.add_row(row);
  }
  csv.close();  // flush + fsync; throws rather than dropping rows
}

void write_jsonl(std::ostream& out, const std::vector<std::string>& axis_names,
                 const std::vector<RunRecord>& records,
                 const JsonlOptions& opts) {
  check_widths(axis_names, records);
  for (const auto& rec : records) {
    out << "{\"cell\":" << rec.cell_index;
    for (std::size_t a = 0; a < axis_names.size(); ++a)
      out << ",\"" << json_escape(axis_names[a]) << "\":\""
          << json_escape(rec.labels[a]) << "\"";
    out << ",\"replication\":" << rec.replication << ",\"seed\":" << rec.seed
        << ",\"mean_tct\":" << num(rec.result.tct.mean)
        << ",\"stddev_tct\":" << num(rec.result.tct.stddev)
        << ",\"p50_tct\":" << num(rec.result.tct.p50)
        << ",\"p95_tct\":" << num(rec.result.tct.p95)
        << ",\"p99_tct\":" << num(rec.result.tct.p99)
        << ",\"generated\":" << rec.result.generated
        << ",\"completed\":" << rec.result.completed
        << ",\"exit_fracs\":[" << num(rec.result.exit1_fraction) << ","
        << num(rec.result.exit2_fraction) << ","
        << num(rec.result.exit3_fraction) << "]"
        << ",\"mean_offload_ratio\":" << num(rec.result.mean_offload_ratio)
        << ",\"total_completed\":" << rec.result.total_completed
        << ",\"in_flight\":" << rec.result.in_flight;
    const auto& f = rec.result.faults;
    out << ",\"faults\":{\"link_outages\":" << f.link_outages
        << ",\"edge_crashes\":" << f.edge_crashes
        << ",\"churn_events\":" << f.churn_events
        << ",\"failed_over\":" << f.failed_over
        << ",\"retries\":" << f.retries
        << ",\"local_fallbacks\":" << f.local_fallbacks
        << ",\"fallback_slots\":" << f.fallback_slots
        << ",\"parked\":" << f.parked << "}";
    // Emitted only in topology mode so flat-link runs keep their exact
    // pre-fabric bytes (the golden-JSONL contract).
    if (rec.result.net.active) {
      const auto& nstat = rec.result.net;
      out << ",\"net\":{\"transfers\":" << nstat.transfers
          << ",\"delivered\":" << nstat.delivered
          << ",\"hops\":" << nstat.hops << ",\"drops\":" << nstat.drops
          << ",\"bytes\":" << num(nstat.bytes)
          << ",\"max_backlog_bytes\":" << num(nstat.max_backlog_bytes) << "}";
    }
    if (!rec.result.metrics.empty()) {
      out << ",\"metrics\":";
      metrics_to_json(rec.result.metrics, out);
    }
    // Attribution/SLO blocks only when those pillars ran, so runs with
    // them disabled keep their exact prior bytes.
    if (rec.result.attribution.active) {
      out << ",\"attribution\":";
      rec.result.attribution.to_json(out);
    }
    if (rec.result.slo.active) {
      out << ",\"slo\":";
      rec.result.slo.to_json(out);
    }
    if (rec.result.provenance.active) {
      out << ",\"provenance\":";
      rec.result.provenance.to_json(out);
    }
    if (opts.include_timing)
      out << ",\"start_s\":" << num(rec.start_s)
          << ",\"end_s\":" << num(rec.end_s) << ",\"worker\":" << rec.worker;
    out << "}\n";
    if (!out.good())
      throw std::runtime_error("runtime sinks: JSONL stream write error");
  }
}

void write_jsonl_file(const std::string& path,
                      const std::vector<std::string>& axis_names,
                      const std::vector<RunRecord>& records,
                      const JsonlOptions& opts) {
  LEIME_PROF_SCOPE("leime.runtime.sink.jsonl");
  util::write_file(path, "runtime sinks", [&](std::ostream& out) {
    write_jsonl(out, axis_names, records, opts);
  });
}

void write_chrome_trace(const std::string& path,
                        const std::vector<RunRecord>& records) {
  LEIME_PROF_SCOPE("leime.runtime.sink.chrome_trace");
  util::write_file(path, "runtime sinks", [&](std::ostream& out) {
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const auto& rec : records) {
      if (!first) out << ",";
      first = false;
      std::string name = "cell " + std::to_string(rec.cell_index);
      for (const auto& label : rec.labels) name += " " + label;
      out << "\n{\"name\":\"" << json_escape(name)
          << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << rec.worker
          << ",\"ts\":" << num(rec.start_s * 1e6)
          << ",\"dur\":" << num((rec.end_s - rec.start_s) * 1e6)
          << ",\"args\":{\"seed\":" << rec.seed
          << ",\"replication\":" << rec.replication
          << ",\"mean_tct\":" << num(rec.result.tct.mean) << "}}";
    }
    out << "\n]}\n";
  });
}

obs::Snapshot merged_metrics(const std::vector<RunRecord>& records) {
  obs::Snapshot merged;
  for (const auto& rec : records)
    if (!rec.result.metrics.empty()) merged.merge(rec.result.metrics);
  return merged;
}

void write_metrics_prometheus(const std::string& path,
                              const std::vector<RunRecord>& records) {
  LEIME_PROF_SCOPE("leime.runtime.sink.prometheus");
  const obs::Snapshot merged = merged_metrics(records);
  util::write_file(path, "metrics",
                   [&](std::ostream& out) { merged.to_prometheus(out); });
}

}  // namespace leime::runtime
