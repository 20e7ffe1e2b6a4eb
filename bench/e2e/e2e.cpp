// End-to-end benchmark driver: one workload per process (see README.md).
//
// Usage:
//   leime_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--out-dir DIR] [--expected-dir DIR] [--record]
//
// A run makes one discarded warm-up repetition, then timed repetitions
// until --seconds have passed (and at least three). Every operation -- one
// scenario run, or one plan cell -- is verified against the warm-up's
// digests, the stored digests for the seed when they exist, and the result
// invariants.
// The last stdout line is one JSON object: end-to-end metrics, or with
// --trace 1 the per-layer metrics of an extra traced repetition.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "e2e.h"
#include "runtime/executor.h"
#include "runtime/sinks.h"
#include "sim/simulation.h"
#include "util/clock.h"
#include "util/ini.h"
#include "util/stats.h"

namespace e2e {

namespace {

namespace rt = leime::runtime;
namespace sim = leime::sim;
namespace prof = leime::prof;
using Clock = leime::util::WallClock;
using leime::util::seconds_since;

/// Timed repetitions a run makes even when --seconds is short.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 60;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string out_dir = ".";
  std::string expected_dir;
  bool record = false;
};

/// One pass through the pipeline.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double total_s = 0.0;
  double designed_tct = 0.0;  ///< simulated: the exit design's estimate
  int workers = 1;            ///< executor threads (campus_sweep)
  std::vector<double> op_s;  ///< wall time per operation
  std::vector<std::string> axis_names;
  std::vector<rt::RunRecord> records;
};

sim::IniScenario setup(const Workload& w) {
  std::optional<leime::util::IniFile> ini;
  {
    LEIME_PROF_SCOPE("leime.bench.ini_parse");
    ini = leime::util::IniFile::parse_string(w.ini);
  }
  std::optional<sim::IniScenario> scenario;
  {
    LEIME_PROF_SCOPE("leime.bench.load_scenario");
    scenario = sim::load_scenario(*ini);
  }
  {
    // Freeing the parsed file is part of the INI layer's cost.
    LEIME_PROF_SCOPE("leime.bench.ini_parse");
    ini.reset();
  }
  return std::move(*scenario);
}

Rep run_pipeline(const Workload& w, const std::string& sink_path) {
  Rep rep;
  const auto t0 = Clock::now();
  sim::IniScenario scenario = setup(w);
  rep.setup_s = seconds_since(t0);
  rep.designed_tct = scenario.expected_tct;
  if (w.sweep) {
    std::vector<rt::Cell> cells;
    {
      LEIME_PROF_SCOPE("leime.bench.plan_expand");
      const auto plan = sweep_plan(scenario);
      rep.axis_names = plan.axis_names();
      cells = plan.expand();
    }
    const auto t_run = Clock::now();
    {
      LEIME_PROF_SCOPE("leime.bench.executor_run");
      rt::ExecutorOptions opts;
      opts.threads = scenario.threads;
      rep.workers = rt::Executor::resolve_threads(scenario.threads);
      rep.records = rt::Executor(opts).run(std::move(cells));
    }
    rep.run_s = seconds_since(t_run);
    for (const auto& rec : rep.records)
      rep.op_s.push_back(rec.end_s - rec.start_s);
  } else {
    const auto t_run = Clock::now();
    rt::RunRecord rec;
    rec.seed = scenario.config.seed;
    {
      LEIME_PROF_SCOPE("leime.bench.run_scenario");
      rec.result = sim::run_scenario(scenario.config);
    }
    rep.run_s = seconds_since(t_run);
    rec.end_s = rep.run_s;
    rep.op_s.push_back(rep.run_s);
    rep.records.push_back(std::move(rec));
  }
  {
    LEIME_PROF_SCOPE("leime.bench.sink_jsonl");
    rt::write_jsonl_file(sink_path, rep.axis_names, rep.records);
  }
  rep.total_s = seconds_since(t0);
  return rep;
}

/// Verification state shared by every repetition of a run.
struct Verifier {
  bool require_drained = false;
  std::vector<std::uint64_t> stored;     ///< expected/, may be empty
  std::vector<std::uint64_t> reference;  ///< first verified repetition
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;

  void fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }

  /// Checks every operation of `rep`; returns its digests.
  std::vector<std::uint64_t> check(const Rep& rep) {
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < rep.records.size(); ++i) {
      ++attempted;
      const auto d = op_digest(rep.axis_names, rep.records[i]);
      digests.push_back(d);
      const std::string err =
          invariant_error(rep.records[i].result, require_drained);
      if (!err.empty())
        fail("operation " + std::to_string(i) + ": " + err);
      else if (!stored.empty() && (i >= stored.size() || stored[i] != d))
        fail("operation " + std::to_string(i) + ": digest differs from the "
             "stored one");
      else if (!reference.empty() &&
               (i >= reference.size() || reference[i] != d))
        fail("operation " + std::to_string(i) + ": digest differs from the "
             "reference repetition");
    }
    if (reference.empty()) reference = digests;
    return digests;
  }

  /// A repetition that threw: `ops` operations attempted, all failed.
  void threw(std::size_t ops, const std::exception& e) {
    for (std::size_t i = 0; i < ops; ++i) {
      ++attempted;
      fail(std::string("exception: ") + e.what());
    }
  }
};

double median(std::vector<double> v) { return leime::util::median_of(v); }

double quantile(std::vector<double> v, double q) {
  return leime::util::percentile(std::move(v), q);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void print_metric(const std::string& workload, const Metric& m,
                  std::size_t n) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-20s %-28s %16.6g %-8s n=%zu\n",
                workload.c_str(), m.name.c_str(), m.value, m.unit.c_str(), n);
  std::cout << buf;
}

/// Simulated-side summary of one repetition, host independent: whether
/// the workload runs at a stable load (mean TCT near the exit design's
/// estimate, drained queues) rather than in a saturated regime.
void print_load_check(const std::string& workload, const Rep& rep) {
  std::vector<double> tct, device_q, edge_q;
  std::size_t in_flight = 0;
  for (const auto& rec : rep.records) {
    tct.push_back(rec.result.tct.mean);
    device_q.push_back(rec.result.mean_device_queue);
    edge_q.push_back(rec.result.mean_edge_queue);
    in_flight += rec.result.in_flight;
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s simulated: %zu operation(s), mean TCT %.3f s (median; "
                "max %.3f s), designed %.3f s, mean queues %.2f device / "
                "%.2f edge tasks, %zu task(s) in flight at the end\n",
                workload.c_str(), rep.records.size(), median(tct),
                *std::max_element(tct.begin(), tct.end()), rep.designed_tct,
                median(device_q), median(edge_q), in_flight);
  std::cout << buf;
}

std::string json_line(const Verifier& v, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += v.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(v.attempted) +
         ", \"failed\": " + std::to_string(v.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto value = [&]() -> std::string {
      if (a + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++a];
    };
    if (arg == "--workload")
      o.workload = value();
    else if (arg == "--seed")
      o.seed = std::stoull(value());
    else if (arg == "--seconds")
      o.seconds = std::stod(value());
    else if (arg == "--trace")
      o.trace = value() != "0";
    else if (arg == "--smoke")
      o.scale = Scale::kSmoke;
    else if (arg == "--out-dir")
      o.out_dir = value();
    else if (arg == "--expected-dir")
      o.expected_dir = value();
    else if (arg == "--record")
      o.record = true;
    else
      throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (!(o.seconds >= 0.0))
    throw std::invalid_argument("--seconds must be >= 0");
  return o;
}

std::string digest_path(const Options& o, const std::string& workload) {
  return o.expected_dir + "/" + workload + "." + scale_name(o.scale) +
         ".seed" + std::to_string(o.seed) + ".txt";
}

int run(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed, o.scale);
  const bool sharded = w.name == "fleet_100k_sharded";
  const std::string sink = o.out_dir + "/" + w.name + ".jsonl";
  const int min_reps = o.scale == Scale::kSmoke ? 1 : kMinReps;
  const double seconds = o.scale == Scale::kSmoke ? 0.0 : o.seconds;

  Verifier v;
  v.require_drained = w.sweep;
  if (!o.expected_dir.empty() && !o.record)
    v.stored = read_digests(digest_path(o, sharded ? "fleet_100k" : w.name));

  std::size_t ops_per_rep = 1;
  auto guarded = [&](auto&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      v.threw(ops_per_rep, e);
      std::cerr << w.name << ": " << e.what() << "\n";
    }
  };

  // Warm-up: verified, not timed. Its digests are the reference the later
  // repetitions must reproduce.
  guarded([&] {
    const Rep warm = run_pipeline(w, sink);
    ops_per_rep = warm.records.size();
    const auto digests = v.check(warm);
    if (o.record && !sharded) write_digests(digest_path(o, w.name), digests);
    print_load_check(w.name, warm);
  });
  // The memory one pass through the pipeline needs, read while the process
  // has made exactly one: later repetitions reuse a heap whose layout, and
  // so whose resident size, depends on what ran before.
  const double rss_mb = peak_rss_mb();

  // The sharded fleet must reproduce the single-queue run's digests.
  double unsharded_run_s = 0.0;
  if (sharded)
    guarded([&] {
      const Workload single = make_workload("fleet_100k", o.seed, o.scale);
      const Rep ref = run_pipeline(single, sink);
      unsharded_run_s = ref.run_s;
      v.check(ref);
    });

  std::vector<double> setup_s, run_s, total_s, tasks_per_s, p50_ms, p95_ms;
  std::vector<double> busy;
  std::vector<rt::RunRecord> last_records;
  const auto t_measure = Clock::now();
  for (int reps = 0;
       reps < kMaxReps &&
       (reps < min_reps || seconds_since(t_measure) < seconds);
       ++reps)
    guarded([&] {
      last_records.clear();
      Rep rep = run_pipeline(w, sink);
      v.check(rep);
      setup_s.push_back(rep.setup_s);
      run_s.push_back(rep.run_s);
      total_s.push_back(rep.total_s);
      double completed = 0.0;
      for (const auto& rec : rep.records)
        completed += static_cast<double>(rec.result.total_completed);
      tasks_per_s.push_back(completed / rep.run_s);
      // A p95 needs at least ten operations beyond it; with fewer (the
      // single-run workloads) both percentiles report the median, which is
      // run_s in milliseconds.
      const bool many_ops = rep.op_s.size() >= 200;
      p50_ms.push_back(1e3 * (many_ops ? quantile(rep.op_s, 0.5)
                                       : median(rep.op_s)));
      p95_ms.push_back(1e3 * (many_ops ? quantile(rep.op_s, 0.95)
                                       : median(rep.op_s)));
      if (w.sweep) {
        double cell_s = 0.0;
        for (double s : rep.op_s) cell_s += s;
        busy.push_back(cell_s / (rep.workers * rep.run_s));
      }
      last_records = std::move(rep.records);
    });
  std::cerr << w.name << " run_s samples:";
  for (double s : run_s) std::cerr << " " << s;
  std::cerr << "\n";
  if (run_s.empty()) {
    std::cerr << w.name << ": no repetition completed\n";
    return 1;
  }

  const std::vector<Metric> e2e_metrics = {
      {"setup_s", "s", median(setup_s)},
      {"run_s", "s", median(run_s)},
      {"total_s", "s", median(total_s)},
      {"sim_tasks_per_s", "tasks/s", median(tasks_per_s)},
      {"cell_p50_ms", "ms", median(p50_ms)},
      {"cell_p95_ms", "ms", median(p95_ms)},
      {"peak_rss_mb", "MB", rss_mb},
  };
  for (const auto& m : e2e_metrics)
    print_metric(w.name, m, m.name == "peak_rss_mb" ? 1 : run_s.size());

  std::vector<Metric> out_metrics = e2e_metrics;
  if (o.trace) {
    LayerInputs in;
    in.workload = w.name;
    in.untraced_total_s = median(total_s);
    in.untraced_run_s = median(run_s);
    in.ini_bytes = w.ini.size();
    in.records = std::move(last_records);
    in.executor_busy_frac = busy.empty() ? 0.0 : median(busy);
    in.unsharded_run_s = unsharded_run_s;
    if (w.name == "wild_1k")
      guarded([&] {
        const Workload quiet = make_workload(w.name, o.seed, o.scale, false);
        in.obs_off_run_s = run_pipeline(quiet, sink).run_s;
      });

    prof::reset();
    prof::set_enabled(true);
    std::optional<Rep> traced;
    guarded([&] { traced = run_pipeline(w, sink); });
    prof::set_enabled(false);
    if (!traced) return 1;
    v.check(*traced);
    const prof::Report report = prof::report();
    in.report = &report;
    in.traced_total_s = traced->total_s;
    prof::write_chrome_trace_file(o.out_dir + "/" + w.name + ".trace.json",
                                  report);
    write_layers_json(o.out_dir + "/" + w.name + ".layers.json", in);
    out_metrics = layer_metrics(in);
    for (const auto& m : out_metrics) print_metric(w.name, m, 1);
  }

  std::cout << w.name << " verification: "
            << (v.failed == 0 ? "PASS" : "FAIL") << " (" << v.failed
            << " of " << v.attempted << " operations failed"
            << (v.first_error.empty() ? "" : "; first: " + v.first_error)
            << ")\n";
  std::cout << json_line(v, out_metrics) << std::endl;
  return 0;
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(e2e::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "leime_e2e: " << e.what() << "\n";
    return 2;
  }
}
