#include "obs/attribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace leime::obs {
namespace {

TEST(AttrStage, PhaseMappingCoversSimulatorPhases) {
  EXPECT_EQ(attr_stage_for_phase("local_block1"), AttrStage::kLocalCompute);
  EXPECT_EQ(attr_stage_for_phase("uplink"), AttrStage::kUplink);
  EXPECT_EQ(attr_stage_for_phase("edge_block1"), AttrStage::kEdgeCompute);
  EXPECT_EQ(attr_stage_for_phase("edge_block2"), AttrStage::kEdgeCompute);
  EXPECT_EQ(attr_stage_for_phase("edge_cloud_link"), AttrStage::kCloudLink);
  EXPECT_EQ(attr_stage_for_phase("cloud_block3"), AttrStage::kCloudCompute);
  EXPECT_EQ(attr_stage_for_phase("return_link"), AttrStage::kResultReturn);
  EXPECT_EQ(attr_stage_for_phase("cloud_return_link"),
            AttrStage::kResultReturn);
  EXPECT_EQ(attr_stage_for_phase("some_future_phase"), AttrStage::kOther);

  EXPECT_TRUE(attr_stage_is_link(AttrStage::kUplink));
  EXPECT_TRUE(attr_stage_is_link(AttrStage::kCloudLink));
  EXPECT_TRUE(attr_stage_is_link(AttrStage::kResultReturn));
  EXPECT_FALSE(attr_stage_is_link(AttrStage::kLocalCompute));
  EXPECT_FALSE(attr_stage_is_link(AttrStage::kEdgeCompute));

  // Names feed composed metric names: the registry alphabet is [a-z0-9_].
  for (int i = 0; i < kAttrStageCount; ++i) {
    const std::string name = attr_stage_name(static_cast<AttrStage>(i));
    ASSERT_FALSE(name.empty());
    for (char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
  }
  for (int i = 0; i < kCalibComponentCount; ++i) {
    const std::string name =
        calib_component_name(static_cast<CalibComponent>(i));
    for (char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
  }
}

TEST(LatencyLedger, AssemblesWaitServiceWaterfallAndConserves) {
  LatencyLedger ledger;
  PredictedComponents pred;
  ledger.on_generated(7, 0, 0, 10.0, 1, true, pred);
  EXPECT_EQ(ledger.open_tasks(), 1u);

  // Uplink: queued at 10.0, serialization starts at 10.4, done at 10.9.
  ledger.on_phase_begin(7, AttrStage::kUplink, 10.0, 10.4);
  ledger.on_phase_end(7, 10.9);
  // Edge block 1: queued at 10.9, starts at 11.2, done at 11.5.
  ledger.on_phase_begin(7, AttrStage::kEdgeCompute, 10.9, 11.2);
  ledger.on_phase_end(7, 11.5);
  // A gap [11.5, 11.7] with no span — becomes stall.
  ledger.on_phase_begin(7, AttrStage::kResultReturn, 11.7, 11.7);
  ledger.on_phase_end(7, 12.0);

  TaskWaterfall wf;
  ASSERT_TRUE(ledger.on_complete(7, 12.0, 0, true, &wf));
  EXPECT_EQ(ledger.open_tasks(), 0u);
  EXPECT_EQ(wf.task, 7u);
  EXPECT_TRUE(wf.offloaded);
  EXPECT_DOUBLE_EQ(wf.e2e, 2.0);

  const auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
  EXPECT_NEAR(up.wait, 0.4, 1e-12);
  EXPECT_NEAR(up.service, 0.5, 1e-12);
  const auto& edge =
      wf.stages[static_cast<std::size_t>(AttrStage::kEdgeCompute)];
  EXPECT_NEAR(edge.wait, 0.3, 1e-12);
  EXPECT_NEAR(edge.service, 0.3, 1e-12);
  const auto& ret =
      wf.stages[static_cast<std::size_t>(AttrStage::kResultReturn)];
  EXPECT_NEAR(ret.wait, 0.0, 1e-12);
  EXPECT_NEAR(ret.service, 0.3, 1e-12);

  // Conservation: stages + stall == e2e, and the stall is the uncovered gap.
  double spans = 0.0;
  for (const auto& s : wf.stages) spans += s.wait + s.service;
  EXPECT_NEAR(spans + wf.stall, wf.e2e, 1e-12);
  EXPECT_NEAR(wf.stall, 0.2, 1e-12);
}

TEST(LatencyLedger, HopSpansRefineLinkStageWait) {
  LatencyLedger ledger;
  ledger.on_generated(1, 0, 0, 0.0, 1, true, {});

  // Span-level exec_start only knows the first hop; two fabric hops each
  // contribute their own wait. Hops partition [0.0, 1.0] exactly.
  ledger.on_phase_begin(1, AttrStage::kUplink, 0.0, 0.0);
  ledger.on_hop(1, 3, 0.0, 0.1, 0.5);  // port 3: wait 0.1, service 0.4
  ledger.on_hop(1, 0, 0.5, 0.8, 1.0);  // port 0: wait 0.3, service 0.2
  ledger.on_phase_end(1, 1.0);

  TaskWaterfall wf;
  ASSERT_TRUE(ledger.on_complete(1, 1.0, 0, true, &wf));
  const auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
  EXPECT_NEAR(up.wait, 0.4, 1e-12);     // hop waits summed
  EXPECT_NEAR(up.service, 0.6, 1e-12);  // remainder of the span
  ASSERT_EQ(wf.hops.size(), 2u);
  EXPECT_EQ(wf.hops[0].port, 3u);
  EXPECT_NEAR(wf.hops[0].wait, 0.1, 1e-12);
  EXPECT_NEAR(wf.hops[0].service, 0.4, 1e-12);
  EXPECT_EQ(wf.hops[1].port, 0u);
  EXPECT_NEAR(wf.hops[1].wait, 0.3, 1e-12);
  EXPECT_NEAR(wf.hops[1].service, 0.2, 1e-12);

  // Hops against a compute stage (or no open span) are ignored.
  ledger.on_generated(2, 0, 0, 0.0, 1, false, {});
  ledger.on_hop(2, 3, 0.0, 0.0, 1.0);  // no open span
  ledger.on_phase_begin(2, AttrStage::kLocalCompute, 0.0, 0.2);
  ledger.on_hop(2, 3, 0.0, 0.0, 1.0);  // not a link stage
  ledger.on_phase_end(2, 1.0);
  ASSERT_TRUE(ledger.on_complete(2, 1.0, 0, true, &wf));
  EXPECT_TRUE(wf.hops.empty());
  const auto& local =
      wf.stages[static_cast<std::size_t>(AttrStage::kLocalCompute)];
  EXPECT_NEAR(local.wait, 0.2, 1e-12);
  EXPECT_NEAR(local.service, 0.8, 1e-12);
}

TEST(LatencyLedger, DefensiveCloseAndCompletionCloseOpenSpans) {
  LatencyLedger ledger;
  ledger.on_generated(3, 1, 0, 0.0, 2, true, {});

  // A begin while another span is open closes the previous one at the new
  // span's queue time (the nested cloud_return_link -> return_link case).
  ledger.on_phase_begin(3, AttrStage::kResultReturn, 0.0, 0.0);
  ledger.on_phase_begin(3, AttrStage::kResultReturn, 0.6, 0.6);
  // Completion with the last span still open closes it at t_complete.
  TaskWaterfall wf;
  ASSERT_TRUE(ledger.on_complete(3, 1.0, 0, true, &wf));
  const auto& ret =
      wf.stages[static_cast<std::size_t>(AttrStage::kResultReturn)];
  EXPECT_NEAR(ret.wait + ret.service, 1.0, 1e-12);
  EXPECT_NEAR(wf.stall, 0.0, 1e-12);
}

TEST(LatencyLedger, ParkedAndUnknownTasks) {
  LatencyLedger ledger;
  ledger.on_generated(5, 0, 0, 0.0, 1, false, {});
  ledger.on_phase_begin(5, AttrStage::kLocalCompute, 0.0, 0.0);
  EXPECT_TRUE(ledger.on_parked(5));
  EXPECT_FALSE(ledger.on_parked(5));  // already gone
  EXPECT_EQ(ledger.open_tasks(), 0u);

  TaskWaterfall wf;
  EXPECT_FALSE(ledger.on_complete(5, 1.0, 0, true, &wf));
  // Hooks for never-registered tasks are no-ops, not crashes.
  ledger.on_phase_begin(99, AttrStage::kUplink, 0.0, 0.0);
  ledger.on_phase_end(99, 1.0);
  ledger.on_hop(99, 0, 0.0, 0.0, 1.0);
  EXPECT_EQ(ledger.open_tasks(), 0u);
}

// The pool, the open-addressing index and the hop arena under churn:
// hundreds of tasks in flight, completed and parked out of order (which
// exercises the index's backward-shift erase), each still found with its
// own fields and hops in traversal order.
TEST(LatencyLedger, PoolIndexAndArenaSurviveOutOfOrderChurn) {
  LatencyLedger ledger;
  constexpr std::uint64_t kTasks = 600;
  for (std::uint64_t t = 0; t < kTasks; ++t) {
    ledger.on_generated(t * 7919, 0, 0, static_cast<double>(t), 1, true, {});
    ledger.on_phase_begin(t * 7919, AttrStage::kUplink, 1e3, 1e3);
    for (std::uint32_t k = 0; k < t % 4; ++k)
      ledger.on_hop(t * 7919, static_cast<std::uint32_t>(t) + k, 1e3, 1e3,
                    1e3 + 1.0);
  }
  EXPECT_EQ(ledger.open_tasks(), kTasks);
  TaskWaterfall wf;
  std::uint64_t left = kTasks;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t t = round; t < kTasks; t += 3) {
      const std::uint64_t id = t * 7919;
      if (t % 10 == 9) {
        EXPECT_TRUE(ledger.on_parked(id));
      } else {
        ASSERT_TRUE(ledger.on_complete(id, 2e3, 0, true, &wf)) << t;
        EXPECT_EQ(wf.task, id);
        EXPECT_EQ(wf.t_arrive, static_cast<double>(t));
        ASSERT_EQ(wf.hops.size(), t % 4) << t;
        for (std::uint32_t k = 0; k < wf.hops.size(); ++k)
          EXPECT_EQ(wf.hops[k].port, static_cast<std::uint32_t>(t) + k);
      }
      EXPECT_EQ(ledger.open_tasks(), --left);
      EXPECT_FALSE(ledger.on_complete(id, 2e3, 0, true, &wf));
    }
  }
  // Recycled slots and hop nodes start clean.
  ledger.on_generated(1, 0, 0, 5.0, 1, false, {});
  ASSERT_TRUE(ledger.on_complete(1, 6.0, 0, true, &wf));
  EXPECT_TRUE(wf.hops.empty());
  EXPECT_EQ(wf.stall, 1.0);
  ledger.on_generated(2, 0, 0, 0.0, 1, false, {});
  ledger.clear();
  EXPECT_EQ(ledger.open_tasks(), 0u);
  EXPECT_FALSE(ledger.on_parked(2));
}

TaskWaterfall make_calibrated_waterfall(bool offloaded) {
  TaskWaterfall wf;
  wf.task = 1;
  wf.block = 1;
  wf.retries = 0;
  wf.offloaded = offloaded;
  wf.pred.valid = true;
  wf.pred.local_wait = 0.1;
  wf.pred.local_service = 0.2;
  wf.pred.uplink = 0.3;
  wf.pred.edge_wait = 0.05;
  wf.pred.edge_service = 0.15;
  auto& local = wf.stages[static_cast<std::size_t>(AttrStage::kLocalCompute)];
  local = {0.12, 0.2};
  auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
  up = {0.1, 0.25};
  auto& edge = wf.stages[static_cast<std::size_t>(AttrStage::kEdgeCompute)];
  edge = {0.06, 0.14};
  return wf;
}

TEST(TaskWaterfall, CalibrationErrorApplicabilityRules) {
  double err = 0.0;

  // Local task: local components calibrate, offload components do not.
  auto local = make_calibrated_waterfall(false);
  ASSERT_TRUE(local.calibration_error(CalibComponent::kLocalWait, &err));
  EXPECT_NEAR(err, 0.02, 1e-12);  // actual 0.12 - predicted 0.1
  ASSERT_TRUE(local.calibration_error(CalibComponent::kLocalService, &err));
  EXPECT_NEAR(err, 0.0, 1e-12);
  EXPECT_FALSE(local.calibration_error(CalibComponent::kUplink, &err));
  EXPECT_FALSE(local.calibration_error(CalibComponent::kEdgeWait, &err));

  // Offloaded task: the mirror-image split; uplink joins wait + service.
  auto off = make_calibrated_waterfall(true);
  EXPECT_FALSE(off.calibration_error(CalibComponent::kLocalWait, &err));
  ASSERT_TRUE(off.calibration_error(CalibComponent::kUplink, &err));
  EXPECT_NEAR(err, 0.05, 1e-12);  // (0.1 + 0.25) - 0.3
  ASSERT_TRUE(off.calibration_error(CalibComponent::kEdgeWait, &err));
  EXPECT_NEAR(err, 0.01, 1e-12);
  ASSERT_TRUE(off.calibration_error(CalibComponent::kEdgeService, &err));
  EXPECT_NEAR(err, -0.01, 1e-12);

  // Retried, deep-exit or prediction-less tasks never calibrate.
  auto retried = make_calibrated_waterfall(true);
  retried.retries = 1;
  EXPECT_FALSE(retried.calibration_error(CalibComponent::kUplink, &err));
  auto deep = make_calibrated_waterfall(true);
  deep.block = 2;
  EXPECT_FALSE(deep.calibration_error(CalibComponent::kUplink, &err));
  auto unpredicted = make_calibrated_waterfall(true);
  unpredicted.pred.valid = false;
  EXPECT_FALSE(unpredicted.calibration_error(CalibComponent::kUplink, &err));
}

// Port names by id for the synthetic hops below: id 1 is "ap0_edge0".
constexpr std::uint32_t kEdgePort = 1;
const std::vector<std::string> kPortNames = {"dev0_ap0", "ap0_edge0"};

TaskWaterfall simple_waterfall(std::uint64_t task, double wait,
                               double service) {
  TaskWaterfall wf;
  wf.task = task;
  wf.block = 1;
  auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
  up = {wait, service};
  wf.e2e = wait + service;
  wf.hops.push_back({kEdgePort, wait, service});
  return wf;
}

TEST(AttributionFold, FreezeSortsClassesAndSumsStagesAndPorts) {
  // Class index 0 is "sensor", 1 is "camera": freeze orders by name.
  const std::vector<std::string> classes = {"sensor", "camera"};
  AttributionFold fold(classes.size());
  fold.add(simple_waterfall(1, 0.1, 0.4));
  fold.add(simple_waterfall(2, 0.3, 0.2));
  auto camera_wf = make_calibrated_waterfall(true);
  camera_wf.cls = 1;
  fold.add(camera_wf);
  const AttributionSummary all = fold.freeze(classes, kPortNames);

  EXPECT_TRUE(all.active);
  EXPECT_EQ(all.tasks, 3u);
  EXPECT_EQ(all.calibrated_tasks, 1u);
  ASSERT_EQ(all.classes.size(), 2u);
  EXPECT_EQ(all.classes[0].name, "camera");  // sorted by name
  EXPECT_EQ(all.classes[1].name, "sensor");
  EXPECT_EQ(all.classes[1].tasks, 2u);
  const auto up_idx = static_cast<std::size_t>(AttrStage::kUplink);
  EXPECT_NEAR(all.classes[1].stages[up_idx].wait, 0.4, 1e-12);
  EXPECT_NEAR(all.classes[1].stages[up_idx].service, 0.6, 1e-12);
  ASSERT_EQ(all.ports.size(), 1u);  // port 0 carried no span
  EXPECT_EQ(all.ports[0].first, "ap0_edge0");
  EXPECT_EQ(all.ports[0].second.spans, 2u);
  EXPECT_NEAR(all.ports[0].second.wait, 0.4, 1e-12);

  // The JSON rendering keeps the same class and port order.
  std::ostringstream json;
  all.to_json(json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"tasks\":3,"), std::string::npos);
  const auto camera = text.find("{\"name\":\"camera\"");
  const auto sensor = text.find("{\"name\":\"sensor\",\"tasks\":2,");
  ASSERT_NE(camera, std::string::npos);
  ASSERT_NE(sensor, std::string::npos);
  EXPECT_LT(camera, sensor);
  EXPECT_NE(text.find("\"ports\":[{\"port\":\"ap0_edge0\",\"spans\":2,"),
            std::string::npos);
}

// Ports sort by name, not by id, and ids the name table does not cover
// keep a stable fallback label.
TEST(AttributionFold, PortsSortByNameAndUnnamedIdsGetALabel) {
  AttributionFold fold(1);
  TaskWaterfall wf = simple_waterfall(1, 0.1, 0.2);
  wf.hops = {{4, 0.1, 0.0}, {1, 0.0, 0.2}, {0, 0.0, 0.0}};
  fold.add(wf);
  const AttributionSummary s = fold.freeze({"default"}, kPortNames);
  ASSERT_EQ(s.ports.size(), 3u);
  EXPECT_EQ(s.ports[0].first, "ap0_edge0");
  EXPECT_EQ(s.ports[1].first, "dev0_ap0");
  EXPECT_EQ(s.ports[2].first, "port4");
  EXPECT_EQ(port_label(1, kPortNames), "ap0_edge0");
  EXPECT_EQ(port_label(7, {}), "port7");
}

// The buckets add() reports are the ones an equal-geometry histogram
// computes, and the calibration errors match calibration_error().
TEST(AttributionFold, FoldedBucketsMatchAFreshHistogram) {
  AttributionFold fold(1);
  TaskWaterfall wf = make_calibrated_waterfall(true);
  wf.e2e = 0.9;
  wf.stall = 0.05;
  const FoldedWaterfall f = fold.add(wf);
  const Histogram h(attr_latency_buckets());
  const auto up = static_cast<std::size_t>(AttrStage::kUplink);
  EXPECT_EQ(f.wait_bucket[up], h.bucket(0.1));
  EXPECT_EQ(f.service_bucket[up], h.bucket(0.25));
  EXPECT_EQ(f.e2e_bucket, h.bucket(0.9));
  EXPECT_EQ(f.stall_bucket, h.bucket(0.05));
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    double err = 0.0;
    const bool applies =
        wf.calibration_error(static_cast<CalibComponent>(ci), &err);
    EXPECT_EQ((f.calibrated >> ci & 1u) != 0, applies) << ci;
    if (applies) {
      EXPECT_EQ(f.calib_err[static_cast<std::size_t>(ci)], err);
    }
  }
}

TEST(AttributionSummary, JsonShape) {
  AttributionFold fold(1);
  fold.add(make_calibrated_waterfall(true));
  const AttributionSummary s = fold.freeze({"camera"}, {});
  std::ostringstream out;
  s.to_json(out);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find("\"tasks\":1"), std::string::npos);
  EXPECT_NE(text.find("\"classes\":[{\"name\":\"camera\""), std::string::npos);
  EXPECT_NE(text.find("\"stage\":\"uplink\""), std::string::npos);
  EXPECT_NE(text.find("\"calibration\":[{\"component\":\"uplink\""),
            std::string::npos);
  EXPECT_EQ(text.find('\n'), std::string::npos);  // single line for JSONL
}

TEST(AttributionFiles, WaterfallJsonlAndCalibrationCsv) {
  std::vector<TaskWaterfall> rows;
  rows.push_back(simple_waterfall(4, 0.1, 0.2));
  rows.push_back(make_calibrated_waterfall(true));
  const std::vector<std::string> names = {"default"};

  std::ostringstream jsonl;
  write_waterfalls_jsonl(jsonl, rows, names, kPortNames);
  const std::string text = jsonl.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"task\":4"), std::string::npos);
  EXPECT_NE(text.find("\"hops\":[{\"port\":\"ap0_edge0\""), std::string::npos);
  // Row without a prediction omits the pred block; the calibrated row has it.
  EXPECT_NE(text.find("\"pred\":{\"local_wait\":"), std::string::npos);

  std::ostringstream csv;
  write_calibration_csv(csv, rows, names);
  std::istringstream lines(csv.str());
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.substr(0, 44), "task,class,device,block,retries,offloaded,x,");
  EXPECT_NE(header.find("pred_uplink,actual_uplink,err_uplink"),
            std::string::npos);
  // Only the predicted task gets a row; inapplicable components stay empty.
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_EQ(row.substr(0, 2), "1,");
  EXPECT_FALSE(std::getline(lines, extra));
  EXPECT_NE(row.find(",,"), std::string::npos);  // empty local_wait err cell
}

}  // namespace
}  // namespace leime::obs
