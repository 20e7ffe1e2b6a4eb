// Task lifetime (DESIGN.md §16): the simulator keeps a task's record only
// while it is in flight and folds each task into the run summary as it
// retires, in id order.
//
//   TaskFold.*   the fold against a reference that keeps every task's full
//                record to the end (tests/sim/task_fold_reference.*), over
//                generated configs: Poisson, periodic and bursty mixes,
//                edge crashes, timeouts whose retries run out, link
//                outages, routed fabrics that drop, result returns;
//   TaskMemory.* the heap a run needs grows by a bounded number of bytes
//                per task.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/partition.h"
#include "models/zoo.h"
#include "sim/simulation.h"
#include "support/alloc_hooks.h"
#include "task_fold_reference.h"
#include "util/rng.h"
#include "util/units.h"

namespace leime::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const core::MeDnnPartition& test_partition() {
  static const core::MeDnnPartition partition = [] {
    const auto profile = models::make_squeezenet();
    return core::make_partition(profile, {4, 8, profile.num_units()});
  }();
  return partition;
}

/// Rebuilds every task's full record from the task hooks, and measures the
/// widest in-flight window: the newest id minus the oldest unfinished one,
/// plus one.
class RecordObserver : public Observer {
 public:
  explicit RecordObserver(double warmup) : warmup_(warmup) {}

  void on_task_generated(std::uint64_t task, int device, double t, int block,
                         bool offloaded) override {
    EXPECT_EQ(task, records.size());
    fold_reference::Record rec;
    rec.t_arrive = t;
    rec.device = static_cast<std::size_t>(device);
    rec.block = block;
    rec.offloaded = offloaded;
    rec.counted = t >= warmup_;
    records.push_back(rec);
    widest_window = std::max(widest_window, records.size() - oldest_open_);
  }
  void on_task_complete(std::uint64_t task, int /*device*/,
                        double /*t_arrive*/, double t_complete, int /*block*/,
                        int /*retries*/, bool counted) override {
    auto& rec = records.at(task);
    EXPECT_LT(rec.t_complete, 0.0);
    EXPECT_EQ(rec.counted, counted);
    rec.t_complete = t_complete;
    advance();
  }
  void on_task_parked(std::uint64_t task, int /*device*/,
                      double /*t*/) override {
    records.at(task).parked = true;
    advance();
  }

  std::vector<fold_reference::Record> records;
  std::size_t widest_window = 0;

 private:
  void advance() {
    while (oldest_open_ < records.size() &&
           (records[oldest_open_].t_complete >= 0.0 ||
            records[oldest_open_].parked))
      ++oldest_open_;
  }

  double warmup_;
  std::size_t oldest_open_ = 0;
};

/// A random valid scenario: a mix of arrival kinds with a warmup, and each
/// of edge crashes, task timeouts, link outages, a dropping fabric and
/// result returns through a FIFO cloud, on or off.
ScenarioConfig random_config(util::Rng& rng) {
  ScenarioConfig cfg;
  cfg.partition = test_partition();
  const auto devices = rng.uniform_int(2, 6);
  for (std::int64_t i = 0; i < devices; ++i) {
    DeviceSpec dev;
    dev.flops = core::kRaspberryPiFlops * rng.uniform(0.8, 4.0);
    dev.difficulty = rng.uniform(0.8, 1.6);
    switch (rng.uniform_int(0, 2)) {
      case 0:
        dev.arrival = ArrivalKind::kPoisson;
        dev.mean_rate = rng.uniform(0.5, 3.0);
        break;
      case 1:  // whole rates, so periodic devices tie
        dev.arrival = ArrivalKind::kPeriodic;
        dev.mean_rate = static_cast<double>(rng.uniform_int(1, 3));
        break;
      default:
        dev.arrival = ArrivalKind::kBursty;
        dev.mean_rate = rng.uniform(0.5, 2.0);
        dev.bursty_high_rate = rng.uniform(4.0, 10.0);
        dev.bursty_dwell = rng.uniform(1.0, 4.0);
        break;
    }
    cfg.devices.push_back(dev);
  }
  const char* policies[] = {"LEIME", "LEIME+fallback", "E-only", "cap_based"};
  cfg.policy = policies[rng.uniform_int(0, 3)];
  cfg.duration = rng.uniform(10.0, 30.0);
  cfg.warmup = rng.uniform(0.0, 3.0);
  cfg.timeline_window = rng.uniform(0.5, 4.0);
  cfg.seed = rng.next_u64();

  auto& faults = cfg.faults;
  if (rng.bernoulli(0.5)) {  // edge crashes, detection and restart probes
    const double start = rng.uniform(0.0, cfg.duration);
    const bool heals = rng.bernoulli(0.7);
    faults.edge.windows.push_back(
        {start, heals ? start + rng.uniform(1.0, 6.0) : kInf});
    faults.degradation.detection_timeout = rng.uniform(0.2, 1.0);
    faults.degradation.probe_period = rng.uniform(0.2, 0.8);
  }
  if (rng.bernoulli(0.5)) {  // timeouts; a budget of 0 or 1 runs out
    faults.degradation.task_timeout = rng.uniform(0.3, 2.0);
    faults.degradation.max_retries = static_cast<int>(rng.uniform_int(0, 2));
    faults.degradation.retry_backoff = rng.uniform(0.05, 0.4);
  }
  if (rng.bernoulli(0.4)) {  // link outages
    const double start = rng.uniform(0.0, cfg.duration);
    faults.link.windows.push_back(
        {start, start + rng.uniform(1.0, 5.0),
         static_cast<int>(rng.uniform_int(-1, devices - 1))});
  }
  if (rng.bernoulli(0.3)) {  // a fabric whose full queues drop transfers
    cfg.topology.aps = static_cast<int>(rng.uniform_int(1, 2));
    cfg.topology.ap_bandwidth = util::mbps(rng.uniform(5.0, 20.0));
    cfg.topology.ap_latency = util::ms(rng.uniform(0.0, 3.0));
    cfg.topology.queue_limit_bytes = rng.uniform(0.8e6, 2.0e6);
  }
  if (rng.bernoulli(0.3)) {  // result returns through a FIFO cloud
    cfg.result_bytes = rng.uniform(1e3, 1e5);
    cfg.cloud_fifo = true;
  }
  return cfg;
}

void expect_same_summary(const util::Summary& a, const util::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.max, b.max);
}

/// What a checked run ended with.
struct FoldRun {
  std::size_t parked = 0;
  std::size_t in_flight = 0;
  std::size_t widest_window = 0;  ///< see RecordObserver
};

/// Runs `cfg` with a RecordObserver and checks every field the reference
/// computes, bit for bit.
FoldRun expect_fold_matches_reference(ScenarioConfig cfg,
                                      const std::string& label) {
  SCOPED_TRACE(label);
  RecordObserver records(cfg.warmup);
  cfg.observer = &records;
  const SimResult got = run_scenario(cfg);
  const SimResult want = fold_reference::summarize(
      records.records, cfg.devices.size(), cfg.timeline_window);
  EXPECT_EQ(got.generated, want.generated);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.total_completed, want.total_completed);
  EXPECT_EQ(got.in_flight, want.in_flight);
  EXPECT_EQ(got.faults.parked, want.faults.parked);
  expect_same_summary(got.tct, want.tct);
  EXPECT_EQ(got.exit1_fraction, want.exit1_fraction);
  EXPECT_EQ(got.exit2_fraction, want.exit2_fraction);
  EXPECT_EQ(got.exit3_fraction, want.exit3_fraction);
  EXPECT_EQ(got.timeline.size(), want.timeline.size());
  for (std::size_t i = 0;
       i < std::min(got.timeline.size(), want.timeline.size()); ++i) {
    EXPECT_EQ(got.timeline[i].time, want.timeline[i].time);
    EXPECT_EQ(got.timeline[i].mean_tct, want.timeline[i].mean_tct);
    EXPECT_EQ(got.timeline[i].count, want.timeline[i].count);
  }
  EXPECT_EQ(got.per_device.size(), want.per_device.size());
  for (std::size_t i = 0;
       i < std::min(got.per_device.size(), want.per_device.size()); ++i) {
    SCOPED_TRACE("device " + std::to_string(i));
    expect_same_summary(got.per_device[i].tct, want.per_device[i].tct);
    EXPECT_EQ(got.per_device[i].completed, want.per_device[i].completed);
  }
  return {got.faults.parked, got.in_flight, records.widest_window};
}

TEST(TaskFold, MatchesAFullRecordReference) {
  util::Rng rng(0x7A5CF01Du);
  std::size_t parked_runs = 0, in_flight_runs = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const FoldRun run = expect_fold_matches_reference(
        random_config(rng), "trial " + std::to_string(trial));
    parked_runs += run.parked > 0;
    in_flight_runs += run.in_flight > 0;
  }
  // The generator reaches both ways a task can end the run unfinished.
  EXPECT_GT(parked_runs, 10u);
  EXPECT_GT(in_flight_runs, 10u);

  // A 100 s outage on one device's uplink holds its first offloaded task
  // while the other nine keep completing: the in-flight window passes
  // 4,096 tasks, so the ring (1,024 slots at the start) doubles three
  // times.
  ScenarioConfig wide;
  wide.partition = test_partition();
  wide.devices.assign(10, DeviceSpec{});
  for (auto& dev : wide.devices) dev.mean_rate = 6.0;
  wide.policy = "E-only";
  wide.duration = 120.0;
  wide.warmup = 2.0;
  wide.faults.link.windows.push_back({5.0, 105.0, 0});
  EXPECT_GT(
      expect_fold_matches_reference(wide, "100 s outage").widest_window,
      4096u);
}

/// Peak heap above the heap before the run, and the tasks it generated.
struct HeapUse {
  std::size_t peak_bytes;
  std::size_t generated;
};

HeapUse heap_use(double duration) {
  ScenarioConfig cfg;
  cfg.partition = test_partition();
  for (int i = 0; i < 4; ++i) {
    DeviceSpec dev;
    dev.flops = 10.0 * core::kRaspberryPiFlops;
    dev.mean_rate = 2.0;
    cfg.devices.push_back(dev);
  }
  cfg.policy = "LEIME";
  cfg.duration = duration;
  cfg.warmup = 1.0;
  cfg.seed = 3;
  const std::size_t before = testsupport::live_bytes();
  testsupport::reset_peak();
  const SimResult r = run_scenario(cfg);
  return {testsupport::peak_live_bytes() - before, r.generated};
}

// The run's heap grows with its tasks only through the fold's one entry
// per counted task (16 B, up to 48 B while the array doubles) and the
// timeline's window sums; retired tasks leave no record. A run that kept
// every task's 48-byte record to the end would grow about 76 B per task.
TEST(TaskMemory, HeapPeakGrowsAtMost40BytesPerTask) {
  const HeapUse short_run = heap_use(500.0);
  const HeapUse long_run = heap_use(4000.0);
  ASSERT_GT(long_run.generated, short_run.generated);
  const double per_task =
      static_cast<double>(long_run.peak_bytes - short_run.peak_bytes) /
      static_cast<double>(long_run.generated - short_run.generated);
  RecordProperty("bytes_per_task", std::to_string(per_task));
  EXPECT_LE(per_task, 40.0) << short_run.peak_bytes << " B for "
                            << short_run.generated << " tasks, "
                            << long_run.peak_bytes << " B for "
                            << long_run.generated << " tasks";
}

}  // namespace
}  // namespace leime::sim
