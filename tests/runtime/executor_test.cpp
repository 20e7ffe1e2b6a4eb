#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "models/zoo.h"
#include "runtime/sinks.h"
#include "sim/simulation.h"

namespace leime::runtime {
namespace {

sim::ScenarioConfig base_config() {
  const auto profile = models::make_squeezenet();
  sim::ScenarioConfig cfg;
  cfg.partition = core::make_partition(profile, {4, 8, profile.num_units()});
  sim::DeviceSpec dev;
  dev.mean_rate = 1.0;
  cfg.devices.push_back(dev);
  cfg.duration = 8.0;
  cfg.warmup = 1.0;
  return cfg;
}

// 3 rates x 2 replications = 6 cells, enough to exercise work stealing.
ExperimentPlan small_plan() {
  ExperimentPlan plan(base_config());
  plan.add_axis("rate", {0.5, 1.0, 2.0},
                [](sim::ScenarioConfig& cfg, double v) {
                  cfg.devices[0].mean_rate = v;
                });
  plan.replications(2).base_seed(7);
  return plan;
}

std::string jsonl_without_timing(const ExperimentPlan& plan,
                                 const std::vector<RunRecord>& records) {
  std::ostringstream out;
  JsonlOptions opts;
  opts.include_timing = false;
  write_jsonl(out, plan.axis_names(), records, opts);
  return out.str();
}

// The determinism contract from the issue: the collected RunRecord set is
// byte-identical (timing telemetry aside) whether the plan runs on one
// worker or four.
TEST(Executor, FourThreadsMatchOneThreadByteForByte) {
  const auto plan = small_plan();
  ExecutorOptions one, four;
  one.threads = 1;
  four.threads = 4;
  const auto a = Executor(one).run(plan);
  const auto b = Executor(four).run(plan);
  ASSERT_EQ(a.size(), b.size());
  const auto text_a = jsonl_without_timing(plan, a);
  const auto text_b = jsonl_without_timing(plan, b);
  EXPECT_FALSE(text_a.empty());
  EXPECT_EQ(text_a, text_b);
  // And the runs actually simulated something.
  for (const auto& rec : a) EXPECT_GT(rec.result.completed, 0u);
}

TEST(Executor, RecordsComeBackInPlanOrder) {
  ExecutorOptions opts;
  opts.threads = 4;
  const auto plan = small_plan();
  const auto records = Executor(opts).run(plan);
  const auto cells = plan.expand();
  ASSERT_EQ(records.size(), cells.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].cell_index, i);
    EXPECT_EQ(records[i].labels, cells[i].labels);
    EXPECT_EQ(records[i].seed, cells[i].config.seed);
    EXPECT_EQ(records[i].replication, cells[i].replication);
    EXPECT_GE(records[i].end_s, records[i].start_s);
    EXPECT_GE(records[i].worker, 0);
  }
}

TEST(Executor, ReplicationsVaryTheOutcome) {
  const auto records = Executor().run(small_plan());
  // Same grid point, different seed streams -> different draws.
  EXPECT_NE(records[0].seed, records[1].seed);
  EXPECT_NE(records[0].result.tct.mean, records[1].result.tct.mean);
}

TEST(Executor, LegacySeedModeReplaysRunScenarioAtBasePlusReplication) {
  // The pre-runtime convention (seed = base + i) stays available for
  // replaying seed-numbered results: each replication must match a direct
  // run_scenario at that seed.
  ExperimentPlan plan(base_config());
  plan.replications(3).base_seed(500).seed_mode(SeedMode::kLegacyArithmetic);
  const auto records = Executor().run(plan);
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records[i].seed, 500u + i);
    auto cfg = base_config();
    cfg.seed = 500 + i;
    EXPECT_DOUBLE_EQ(records[i].result.tct.mean,
                     sim::run_scenario(cfg).tct.mean);
  }
}

TEST(Executor, WorkerExceptionsPropagate) {
  auto cfg = base_config();
  cfg.devices.clear();  // run_scenario rejects device-less scenarios
  ExperimentPlan plan(cfg);
  plan.replications(3);
  ExecutorOptions opts;
  opts.threads = 2;
  EXPECT_THROW(Executor(opts).run(plan), std::invalid_argument);
}

TEST(Executor, ResolveThreads) {
  EXPECT_EQ(Executor::resolve_threads(3), 3);
  EXPECT_GE(Executor::resolve_threads(0), 1);
  EXPECT_GE(Executor::resolve_threads(-1), 1);
}

}  // namespace
}  // namespace leime::runtime
