// Sharded parallel execution (DESIGN.md §15): the determinism contract.
//
// The whole value of the conservative-window runner is that it is an
// execution strategy, not a model change — shards = N must produce results
// bit-identical to shards = 1 for ANY shard/thread combination. The tests
// here enforce that with exact floating-point equality on every SimResult
// field across fleets exercising Poisson/periodic/bursty arrivals, the
// reallocation timer, fault schedules and the batched policy engine; plus
// unit coverage of the partitioning/lookahead helpers, the hub-link replay
// and the thread-pool mechanics (the TSan target for the barrier
// machinery).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partition.h"
#include "models/zoo.h"
#include "sim/event_queue.h"
#include "sim/resources.h"
#include "sim/shard.h"
#include "sim/simulation.h"

namespace leime::sim {
namespace {

const core::MeDnnPartition& test_partition() {
  static const core::MeDnnPartition partition = [] {
    const auto profile = models::make_squeezenet();
    return core::make_partition(profile, {4, 8, profile.num_units()});
  }();
  return partition;
}

/// A heterogeneous fleet: rates, compute and difficulty all vary so the
/// shards see genuinely different workloads (and the hub link sees
/// interleaved cross-shard admissions).
ScenarioConfig fleet_scenario(std::size_t devices, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.partition = test_partition();
  for (std::size_t i = 0; i < devices; ++i) {
    DeviceSpec dev;
    dev.flops = core::kRaspberryPiFlops * (1.0 + 0.15 * (i % 4));
    dev.mean_rate = 1.0 + 0.5 * (i % 3);
    dev.difficulty = 0.9 + 0.05 * (i % 5);
    cfg.devices.push_back(dev);
  }
  cfg.policy = "LEIME";
  cfg.duration = 12.0;
  cfg.warmup = 2.0;
  cfg.seed = seed;
  return cfg;
}

/// Every device periodic, odd ones at 2 tasks/s and even ones at 1: at
/// t = 1.0 device 4's arrival (scheduled at t = 0) runs before device 3's
/// (scheduled at t = 0.5), so same-instant arrivals do not run in device
/// order.
ScenarioConfig mixed_periodic_fleet() {
  ScenarioConfig cfg = fleet_scenario(8, 7);
  for (std::size_t i = 0; i < cfg.devices.size(); ++i) {
    cfg.devices[i].arrival = ArrivalKind::kPeriodic;
    cfg.devices[i].mean_rate = i % 2 ? 2.0 : 1.0;
  }
  cfg.duration = 30.0;
  cfg.warmup = 2.0;
  return cfg;
}

void expect_bit_identical(const SimResult& a, const SimResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.in_flight, b.in_flight);
  EXPECT_EQ(a.tct.count, b.tct.count);
  EXPECT_EQ(a.tct.mean, b.tct.mean);
  EXPECT_EQ(a.tct.stddev, b.tct.stddev);
  EXPECT_EQ(a.tct.min, b.tct.min);
  EXPECT_EQ(a.tct.p50, b.tct.p50);
  EXPECT_EQ(a.tct.p95, b.tct.p95);
  EXPECT_EQ(a.tct.p99, b.tct.p99);
  EXPECT_EQ(a.tct.max, b.tct.max);
  EXPECT_EQ(a.exit1_fraction, b.exit1_fraction);
  EXPECT_EQ(a.exit2_fraction, b.exit2_fraction);
  EXPECT_EQ(a.exit3_fraction, b.exit3_fraction);
  EXPECT_EQ(a.mean_offload_ratio, b.mean_offload_ratio);
  EXPECT_EQ(a.mean_device_queue, b.mean_device_queue);
  EXPECT_EQ(a.mean_edge_queue, b.mean_edge_queue);
  EXPECT_EQ(a.faults.link_outages, b.faults.link_outages);
  EXPECT_EQ(a.faults.edge_crashes, b.faults.edge_crashes);
  EXPECT_EQ(a.faults.churn_events, b.faults.churn_events);
  EXPECT_EQ(a.faults.failed_over, b.faults.failed_over);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.local_fallbacks, b.faults.local_fallbacks);
  EXPECT_EQ(a.faults.fallback_slots, b.faults.fallback_slots);
  EXPECT_EQ(a.faults.parked, b.faults.parked);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time, b.timeline[i].time);
    EXPECT_EQ(a.timeline[i].mean_tct, b.timeline[i].mean_tct);
    EXPECT_EQ(a.timeline[i].count, b.timeline[i].count);
  }
  ASSERT_EQ(a.per_device.size(), b.per_device.size());
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    EXPECT_EQ(a.per_device[i].tct.mean, b.per_device[i].tct.mean);
    EXPECT_EQ(a.per_device[i].tct.p95, b.per_device[i].tct.p95);
    EXPECT_EQ(a.per_device[i].completed, b.per_device[i].completed);
    EXPECT_EQ(a.per_device[i].mean_offload_ratio,
              b.per_device[i].mean_offload_ratio);
    EXPECT_EQ(a.per_device[i].failed_over, b.per_device[i].failed_over);
    EXPECT_EQ(a.per_device[i].retries, b.per_device[i].retries);
    EXPECT_EQ(a.per_device[i].fallback_slots,
              b.per_device[i].fallback_slots);
  }
}

/// Runs the scenario at shards = 1 and at every (shards, threads) combo,
/// demanding bit-identity throughout.
void expect_sharding_invariant(ScenarioConfig cfg, const std::string& label) {
  cfg.shards = {};
  const SimResult single = run_scenario(cfg);
  for (const std::size_t shards : {2u, 3u, 8u}) {
    for (const int threads : {1, 4}) {
      cfg.shards.shards = shards;
      cfg.shards.threads = threads;
      const SimResult sharded = run_scenario(cfg);
      expect_bit_identical(single, sharded,
                           label + " shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads));
    }
  }
}

// ------------------------------------------------------------- helpers

TEST(ShardRange, PartitionsContiguouslyAndBalanced) {
  const std::size_t n = 10, shards = 4;
  std::size_t covered = 0;
  std::size_t prev_hi = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const auto [lo, hi] = shard_range(n, shards, s);
    EXPECT_EQ(lo, prev_hi);  // contiguous, in device order
    EXPECT_GE(hi, lo);
    EXPECT_LE(hi - lo, n / shards + 1);  // balanced within one device
    EXPECT_GE(hi - lo, n / shards);
    covered += hi - lo;
    prev_hi = hi;
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(prev_hi, n);
}

TEST(ResolveShardThreads, ClampsToShardCountAndStaysPositive) {
  ShardOptions opts;
  opts.threads = 16;
  EXPECT_EQ(resolve_shard_threads(opts, 4), 4);
  opts.threads = 2;
  EXPECT_EQ(resolve_shard_threads(opts, 8), 2);
  opts.threads = 0;  // auto: hardware concurrency, still clamped
  EXPECT_GE(resolve_shard_threads(opts, 4), 1);
  EXPECT_LE(resolve_shard_threads(opts, 4), 4);
}

TEST(ShardOptionsValidate, RejectsBadValues) {
  ShardOptions opts;
  opts.shards = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = {};
  opts.threads = -1;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
}

TEST(HubLink, ReplaysLinkTransferBitExactly) {
  // The coordinator's HubLink must reproduce Link::transfer's FIFO
  // serialization arithmetic bit for bit on the flat no-trace path.
  const double bw = 12.5e6 / 3.0;  // awkward bits on purpose
  const double lat = 0.0313;
  EventQueue queue;
  Link link(queue, "hub", bw, lat);
  HubLink hub(bw, lat);

  const double admissions[] = {0.013, 0.0131, 0.5, 0.500000001, 2.75, 9.1};
  const double bytes[] = {1.1e5, 3e4, 2.2e6, 1.0, 7.5e5, 1.3e4};
  std::vector<double> link_deliveries;
  for (int k = 0; k < 6; ++k) {
    queue.schedule(admissions[k], [&, k] {
      link.transfer(bytes[k], [&](double t) { link_deliveries.push_back(t); });
    });
  }
  queue.run_all();

  std::vector<double> hub_deliveries;
  for (int k = 0; k < 6; ++k)
    hub_deliveries.push_back(hub.admit(admissions[k], bytes[k]));
  ASSERT_EQ(link_deliveries.size(), hub_deliveries.size());
  for (std::size_t k = 0; k < hub_deliveries.size(); ++k)
    EXPECT_EQ(link_deliveries[k], hub_deliveries[k]) << "admission " << k;
}

TEST(ShardPool, RunsEveryJobExactlyOnceAcrossThreads) {
  // The TSan target for the window-barrier machinery: parallel regions
  // with disjoint writes plus an atomic claim counter, repeated so the
  // generation/condvar handoff is exercised many times.
  ShardPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(64, 0);
    std::atomic<int> total{0};
    pool.run(hits.size(), [&](std::size_t i) {
      ++hits[i];  // disjoint per job — TSan validates the claim protocol
      total.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 64);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
  }
}

TEST(ShardPool, InlineWhenSingleThreadedAndRethrowsJobFailures) {
  ShardPool inline_pool(1);
  EXPECT_EQ(inline_pool.threads(), 0);  // no workers: deterministic inline
  int ran = 0;
  inline_pool.run(3, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 3);

  ShardPool pool(2);
  EXPECT_THROW(
      pool.run(8,
               [&](std::size_t i) {
                 if (i == 5) throw std::runtime_error("shard failed");
               }),
      std::runtime_error);
  // The pool survives a failed region and runs the next one.
  std::atomic<int> ok{0};
  pool.run(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

// ----------------------------------------- shards=1 ≡ shards=N identity

TEST(ShardedSim, BitIdenticalOnPoissonFleet) {
  expect_sharding_invariant(fleet_scenario(11, 77), "poisson");
}

TEST(ShardedSim, BitIdenticalWithPeriodicTies) {
  // Periodic fleets arrive at exactly coincident times across devices —
  // the hardest case for the merge order (ties resolved by device index,
  // matching the single queue's scheduling order).
  ScenarioConfig cfg = fleet_scenario(9, 123);
  for (auto& dev : cfg.devices) {
    dev.arrival = ArrivalKind::kPeriodic;
    dev.mean_rate = 2.0;  // identical periods: maximal collisions
  }
  expect_sharding_invariant(cfg, "periodic");
}

TEST(ShardedSim, BitIdenticalWithMixedPeriodicTies) {
  // Ties between arrivals scheduled at different times: the merge must
  // order them by when each was scheduled, not by device.
  expect_sharding_invariant(mixed_periodic_fleet(), "mixed periodic");
}

TEST(ShardedSim, BitIdenticalWithReallocationTimer) {
  ScenarioConfig cfg = fleet_scenario(10, 31);
  cfg.reallocation_period = 3.0;  // forces the T-minus gather barriers
  expect_sharding_invariant(cfg, "realloc");
}

TEST(ShardedSim, BitIdenticalWithBurstyArrivalsAndHighLoad) {
  ScenarioConfig cfg = fleet_scenario(8, 5);
  for (std::size_t i = 0; i < cfg.devices.size(); ++i) {
    if (i % 2 == 0) {
      cfg.devices[i].arrival = ArrivalKind::kBursty;
      cfg.devices[i].bursty_high_rate = 12.0;
      cfg.devices[i].bursty_dwell = 2.0;
    }
    cfg.devices[i].mean_rate = 3.0;  // push more tasks through the hub
  }
  expect_sharding_invariant(cfg, "bursty");
}

TEST(ShardedSim, BitIdenticalUnderFaultSchedules) {
  ScenarioConfig cfg = fleet_scenario(10, 99);
  cfg.policy = "LEIME+fallback";
  cfg.faults.edge.windows.push_back({4.0, 6.5});
  cfg.faults.link.windows.push_back({3.0, 5.0, -1});
  cfg.faults.link.windows.push_back({7.0, 8.0, 2});
  ChurnEvent churn;
  churn.device = 1;
  churn.leave = 5.0;
  churn.rejoin = 9.0;
  cfg.faults.churn.events.push_back(churn);
  cfg.faults.degradation.detection_timeout = 0.4;
  cfg.faults.degradation.task_timeout = 2.0;
  cfg.faults.degradation.max_retries = 2;
  cfg.faults.degradation.retry_backoff = 0.3;
  expect_sharding_invariant(cfg, "faults");
}

TEST(ShardedSim, BitIdenticalWithBatchedPolicyEngine) {
  // The coordinator-owned engine is shared across shard threads; its
  // batched eq. 20 path is 0-ULP batch-invariant, so partitioning the
  // fleet must not move a single bit.
  ScenarioConfig cfg = fleet_scenario(12, 41);
  cfg.policy_core.memo_cache = true;
  cfg.policy_core.warm_start = true;
  cfg.policy_core.batch_eq20 = true;
  expect_sharding_invariant(cfg, "batched-engine");
}

/// The task-trace CSV a run of `cfg` writes.
std::string task_trace_bytes(ScenarioConfig cfg) {
  cfg.task_trace_path = testing::TempDir() + "/leime_sharded_trace.csv";
  run_scenario(cfg);
  std::ifstream in(cfg.task_trace_path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(cfg.task_trace_path.c_str());
  return bytes.str();
}

TEST(ShardedSim, TaskTraceMatchesSingleQueue) {
  // The coordinator writes the trace from the merged fold: its rows, ids
  // included, must be the single queue's.
  const ScenarioConfig fleets[] = {fleet_scenario(11, 77),
                                   mixed_periodic_fleet()};
  for (ScenarioConfig cfg : fleets) {
    const std::string single = task_trace_bytes(cfg);
    ASSERT_GT(single.size(), 1000u);
    for (const std::size_t shards : {2u, 3u}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(cfg.devices.size()) + " devices shards=" +
                     std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        cfg.shards.shards = shards;
        cfg.shards.threads = threads;
        EXPECT_TRUE(task_trace_bytes(cfg) == single);
      }
    }
  }
}

TEST(ShardedSim, MetricsCountersMatchSingleQueue) {
  // Observability is restricted to the metrics pillar in sharded mode;
  // counters are integer sums and must merge to exactly the single-queue
  // values. (Gauges are last-wins and histogram moments are FP-order
  // sensitive — deliberately out of the counter contract.)
  ScenarioConfig cfg = fleet_scenario(9, 17);
  cfg.obs.metrics = true;
  const SimResult single = run_scenario(cfg);
  cfg.shards.shards = 4;
  cfg.shards.threads = 2;
  const SimResult sharded = run_scenario(cfg);
  ASSERT_FALSE(single.metrics.empty());
  ASSERT_EQ(single.metrics.counters.size(), sharded.metrics.counters.size());
  for (std::size_t i = 0; i < single.metrics.counters.size(); ++i) {
    EXPECT_EQ(single.metrics.counters[i].name,
              sharded.metrics.counters[i].name);
    EXPECT_EQ(single.metrics.counters[i].value,
              sharded.metrics.counters[i].value)
        << single.metrics.counters[i].name;
  }
}

TEST(ShardedSim, CountsEventsAcrossShardQueues) {
  ScenarioConfig cfg = fleet_scenario(6, 3);
  const SimResult single = run_scenario(cfg);
  EXPECT_GT(single.events_executed, 0u);
  cfg.shards.shards = 3;
  cfg.shards.threads = 1;
  const SimResult sharded = run_scenario(cfg);
  // Fleet-wide ticks (slots, faults, reallocation) replay in every shard,
  // so the sharded count is at least the single-queue count.
  EXPECT_GE(sharded.events_executed, single.events_executed);
}

TEST(ShardedSim, RejectsConfigurationsOutsideTheContract) {
  const auto expect_rejected = [](ScenarioConfig cfg, const char* what) {
    SCOPED_TRACE(what);
    cfg.shards.shards = 2;
    EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
  };
  {
    ScenarioConfig cfg = fleet_scenario(4, 1);
    cfg.cloud_fifo = true;
    expect_rejected(cfg, "cloud_fifo");
  }
  {
    ScenarioConfig cfg = fleet_scenario(4, 1);
    cfg.result_bytes = 1000.0;
    expect_rejected(cfg, "result_bytes");
  }
  {
    ScenarioConfig cfg = fleet_scenario(4, 1);
    cfg.shared_uplink_bw = 1e6;
    expect_rejected(cfg, "shared_uplink_bw");
  }
  {
    ScenarioConfig cfg = fleet_scenario(4, 1);
    cfg.topology.aps = 2;
    expect_rejected(cfg, "topology");
  }
  {
    ScenarioConfig cfg = fleet_scenario(4, 1);
    cfg.obs.attribution = true;
    expect_rejected(cfg, "attribution obs");
  }
  {
    ScenarioConfig cfg = fleet_scenario(4, 1);
    cfg.edge_cloud_lat = 0.0;
    expect_rejected(cfg, "zero hub latency (no lookahead)");
  }
}

}  // namespace
}  // namespace leime::sim
