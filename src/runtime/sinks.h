// Structured sinks for collected RunRecords.
//
// Three machine-readable formats plus the executor's live progress line:
//   * CSV   — one row per cell (util::CsvWriter), for pandas/gnuplot;
//   * JSONL — one self-describing JSON object per cell; timing fields are
//             optional so determinism tests can compare outputs byte-wise;
//   * chrome trace — "X" complete events per cell keyed by worker thread,
//             loadable at chrome://tracing or ui.perfetto.dev to inspect
//             pool utilisation and per-cell wall time.
//
// Durability and error reporting: every file-writing sink writes through
// util::write_file (or util::CsvWriter), which flushes, closes, fsyncs and
// throws std::runtime_error when any byte could not be written (full disk,
// revoked mount); the stream overload of write_jsonl throws as soon as the
// stream reports an error.
//
// Records whose SimResult carries a non-empty metrics snapshot (the
// [observability] layer) get a "metrics" object in their JSONL line; for
// disabled runs the emitted bytes are identical to pre-observability
// builds (the golden-output contract). merged_metrics folds the per-cell
// snapshots in record order — a deterministic merge for any executor
// thread count.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/run_record.h"

namespace leime::runtime {

/// Columns: one per axis name, then replication, seed, the headline
/// metrics, the conservation/fault counters (total_completed, in_flight,
/// failed_over, retries, fallback_slots), and timing telemetry.
/// `axis_names` must match the records' label widths.
void write_csv(const std::string& path,
               const std::vector<std::string>& axis_names,
               const std::vector<RunRecord>& records);

struct JsonlOptions {
  /// Include start_s/end_s/worker. Off, the stream is a deterministic
  /// function of the plan — identical bytes for any executor thread count.
  bool include_timing = true;
};

void write_jsonl(std::ostream& out, const std::vector<std::string>& axis_names,
                 const std::vector<RunRecord>& records,
                 const JsonlOptions& opts = {});

void write_jsonl_file(const std::string& path,
                      const std::vector<std::string>& axis_names,
                      const std::vector<RunRecord>& records,
                      const JsonlOptions& opts = {});

/// chrome://tracing JSON: one complete ("ph":"X") event per cell, pid 0,
/// tid = worker, ts/dur in microseconds from executor start.
void write_chrome_trace(const std::string& path,
                        const std::vector<RunRecord>& records);

/// Folds every record's metrics snapshot into one, in record order (plan
/// order when the records came from Executor::run — deterministic for any
/// thread count). Records with empty snapshots contribute nothing.
obs::Snapshot merged_metrics(const std::vector<RunRecord>& records);

/// Writes merged_metrics(records) as Prometheus text exposition; throws
/// std::runtime_error on write failure.
void write_metrics_prometheus(const std::string& path,
                              const std::vector<RunRecord>& records);

}  // namespace leime::runtime
