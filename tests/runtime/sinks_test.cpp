#include "runtime/sinks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/partition.h"
#include "models/profile_io.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "prof/profiler.h"
#include "sim/simulation.h"
#include "util/table.h"

namespace leime::runtime {
namespace {

std::vector<RunRecord> sample_records() {
  std::vector<RunRecord> records(2);
  records[0].cell_index = 0;
  records[0].labels = {"8", "LEIME"};
  records[0].replication = 0;
  records[0].seed = 101;
  records[0].result.tct.mean = 0.5;
  records[0].result.tct.p95 = 0.9;
  records[0].result.generated = 40;
  records[0].result.completed = 38;
  records[0].result.exit1_fraction = 0.7;
  records[0].start_s = 0.0;
  records[0].end_s = 1.25;
  records[0].worker = 0;
  records[1] = records[0];
  records[1].cell_index = 1;
  records[1].labels = {"8", "DDNN"};
  records[1].replication = 1;
  records[1].seed = 102;
  records[1].result.tct.mean = 1.75;
  records[1].worker = 1;
  return records;
}

const std::vector<std::string> kAxes{"bw", "scheme"};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Sinks, CsvHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "runtime_sinks_test.csv";
  write_csv(path, kAxes, sample_records());
  const auto text = read_file(path);
  EXPECT_NE(text.find("bw,scheme,replication,seed,mean_tct"),
            std::string::npos);
  EXPECT_NE(text.find("8,LEIME,0,101,0.5"), std::string::npos);
  EXPECT_NE(text.find("8,DDNN,1,102,1.75"), std::string::npos);
  // header + 2 rows
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  std::remove(path.c_str());
}

TEST(Sinks, JsonlTimingToggle) {
  std::ostringstream with, without;
  write_jsonl(with, kAxes, sample_records());
  JsonlOptions opts;
  opts.include_timing = false;
  write_jsonl(without, kAxes, sample_records(), opts);

  EXPECT_NE(with.str().find("\"start_s\":"), std::string::npos);
  EXPECT_NE(with.str().find("\"worker\":1"), std::string::npos);
  EXPECT_EQ(without.str().find("\"start_s\":"), std::string::npos);
  EXPECT_EQ(without.str().find("\"worker\""), std::string::npos);

  // One object per record, keyed by the axis names.
  const auto text = without.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("{\"cell\":0,\"bw\":\"8\",\"scheme\":\"LEIME\""),
            std::string::npos);
  EXPECT_NE(text.find("\"mean_tct\":1.75"), std::string::npos);
}

TEST(Sinks, ChromeTraceShape) {
  const std::string path = ::testing::TempDir() + "runtime_sinks_test.trace";
  write_chrome_trace(path, sample_records());
  const auto text = read_file(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"tid\":1"), std::string::npos);
  // 1.25 s cell duration -> 1.25e6 us.
  EXPECT_NE(text.find("\"dur\":1250000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Sinks, JsonlEmitsMetricsOnlyWhenNonEmpty) {
  auto records = sample_records();
  std::ostringstream without;
  write_jsonl(without, kAxes, records);
  // Disabled-observability runs keep the golden byte shape: no metrics key.
  EXPECT_EQ(without.str().find("\"metrics\""), std::string::npos);

  obs::MetricsRegistry reg;
  reg.counter("leime_tasks_generated_total").inc(40);
  records[0].result.metrics = reg.snapshot();
  std::ostringstream with;
  write_jsonl(with, kAxes, records);
  const auto text = with.str();
  const auto first_nl = text.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  EXPECT_NE(text.find("\"metrics\":{\"counters\":"
                      "{\"leime_tasks_generated_total\":40}"),
            std::string::npos);
  // Only the record that carries a snapshot gets the key.
  EXPECT_EQ(text.find("\"metrics\"", first_nl), std::string::npos);
}

TEST(Sinks, FailingStreamReportsWriteError) {
  std::ostringstream out;
  out.setstate(std::ios::badbit);  // shim for a full disk / closed pipe
  EXPECT_THROW(write_jsonl(out, kAxes, sample_records()),
               std::runtime_error);
}

/// Two Raspberry Pis whose SLO (50 ms) fires within a few seconds, so the
/// lazily opened flight-recorder dump is reached too.
sim::ScenarioConfig firing_slo_scenario() {
  const auto profile = models::make_squeezenet();
  sim::ScenarioConfig cfg;
  cfg.partition = core::make_partition(profile, {4, 8, profile.num_units()});
  sim::DeviceSpec pi;
  pi.mean_rate = 2.0;
  cfg.devices = {pi, pi};
  cfg.duration = 8.0;
  cfg.obs.slo.deadline = 0.05;
  cfg.obs.slo.min_window_tasks = 2;
  return cfg;
}

using Write = std::function<void(const std::string&)>;

/// Every file writer, each writing to the path it is given: the runtime
/// sinks, the profiler and model-profile files, the time-series sink, the
/// bench tables' CSV and every output a scenario writes.
std::vector<std::pair<std::string, Write>> file_writers() {
  using SetPath = void (*)(sim::ScenarioConfig&, const std::string&);
  const auto run_with = [](SetPath set) -> Write {
    return [set](const std::string& path) {
      sim::ScenarioConfig cfg = firing_slo_scenario();
      set(cfg, path);
      sim::run_scenario(cfg);
    };
  };
  return {
      {"write_csv",
       [](const std::string& p) { write_csv(p, kAxes, sample_records()); }},
      {"write_jsonl_file",
       [](const std::string& p) {
         write_jsonl_file(p, kAxes, sample_records());
       }},
      {"write_chrome_trace",
       [](const std::string& p) { write_chrome_trace(p, sample_records()); }},
      {"write_metrics_prometheus",
       [](const std::string& p) {
         write_metrics_prometheus(p, sample_records());
       }},
      {"prof_chrome_trace",
       [](const std::string& p) { prof::write_chrome_trace_file(p, {}); }},
      {"prof_collapsed",
       [](const std::string& p) { prof::write_collapsed_file(p, {}); }},
      {"save_profile_file",
       [](const std::string& p) {
         models::save_profile_file(models::make_squeezenet(), p);
       }},
      {"csv_timeseries_sink",
       [](const std::string& p) {
         obs::CsvTimeseriesSink sink(p);
         sink.close();
       }},
      {"table_write_csv",
       [](const std::string& p) {
         util::TablePrinter table({"policy", "tct"});
         table.add_row({"LEIME", "0.5"});
         table.write_csv(p);
       }},
      {"metrics_out", run_with([](sim::ScenarioConfig& c,
                                  const std::string& p) {
         c.obs.metrics_out = p;
       })},
      {"metrics_jsonl", run_with([](sim::ScenarioConfig& c,
                                    const std::string& p) {
         c.obs.metrics_jsonl = p;
       })},
      {"trace_out", run_with([](sim::ScenarioConfig& c,
                                const std::string& p) { c.obs.trace_out = p; })},
      {"timeseries_out", run_with([](sim::ScenarioConfig& c,
                                     const std::string& p) {
         c.obs.timeseries_out = p;
       })},
      {"attribution_out", run_with([](sim::ScenarioConfig& c,
                                      const std::string& p) {
         c.obs.attribution_out = p;
       })},
      {"calibration_out", run_with([](sim::ScenarioConfig& c,
                                      const std::string& p) {
         c.obs.calibration_out = p;
       })},
      {"alerts_out", run_with([](sim::ScenarioConfig& c,
                                 const std::string& p) {
         c.obs.slo.alerts_out = p;
       })},
      {"decisions_out", run_with([](sim::ScenarioConfig& c,
                                    const std::string& p) {
         c.obs.provenance.decisions_out = p;
       })},
      {"dump_out", run_with([](sim::ScenarioConfig& c,
                               const std::string& p) {
         c.obs.provenance.dump_out = p;
       })},
      {"task_trace", run_with([](sim::ScenarioConfig& c,
                                 const std::string& p) {
         c.task_trace_path = p;
       })},
  };
}

/// Expects `write(path)` to throw std::runtime_error naming the path
/// instead of dropping its output.
void expect_throws_naming_path(const std::string& name, const Write& write,
                               const std::string& path) {
  try {
    write(path);
    ADD_FAILURE() << name << " did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << name << ": " << e.what();
  }
}

// Every file writer, pointed at a directory that does not exist, throws
// std::runtime_error naming the path instead of dropping its output.
TEST(Sinks, EveryFileWriterThrowsOnUnwritablePath) {
  for (const auto& [name, write] : file_writers())
    expect_throws_naming_path(name, write, "/nonexistent-dir/" + name);
}

// On a full disk the file opens and only the writes fail, the last one
// when the file is closed: every writer still throws instead of reporting
// success.
TEST(Sinks, EveryFileWriterThrowsOnFullDisk) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this system";
  for (const auto& [name, write] : file_writers())
    expect_throws_naming_path(name, write, "/dev/full");
}

TEST(Sinks, MergedMetricsFoldsRecordsInOrder) {
  auto records = sample_records();
  obs::MetricsRegistry a, b;
  a.counter("leime_c").inc(3);
  a.gauge("leime_g").set(1.0);
  b.counter("leime_c").inc(4);
  b.gauge("leime_g").set(2.0);
  records[0].result.metrics = a.snapshot();
  records[1].result.metrics = b.snapshot();
  const auto merged = merged_metrics(records);
  ASSERT_EQ(merged.counters.size(), 1u);
  EXPECT_EQ(merged.counters[0].value, 7u);
  // Record order is the merge order: the later record's gauge wins.
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 2.0);
}

TEST(Sinks, MismatchedLabelWidthThrows) {
  auto records = sample_records();
  records[1].labels = {"only-one"};
  std::ostringstream out;
  EXPECT_THROW(write_jsonl(out, kAxes, records), std::invalid_argument);
}

}  // namespace
}  // namespace leime::runtime
