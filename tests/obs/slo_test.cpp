#include "obs/slo.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace leime::obs {
namespace {

SloConfig tight_config() {
  SloConfig cfg;
  cfg.deadline = 1.0;
  cfg.window = 10.0;
  cfg.target_miss_rate = 0.1;
  cfg.burn_threshold = 2.0;  // alert at >= 20% window miss rate
  cfg.min_window_tasks = 4;
  return cfg;
}

TEST(SloConfig, ValidationOnlyAppliesWhenEnabled) {
  SloConfig off;  // deadline 0 disables; bad knobs are then ignored
  off.window = -1.0;
  EXPECT_FALSE(off.enabled());
  EXPECT_NO_THROW(off.validate());

  SloConfig bad = tight_config();
  bad.window = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tight_config();
  bad.target_miss_rate = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tight_config();
  bad.target_miss_rate = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tight_config();
  bad.burn_threshold = -2.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(tight_config().validate());

  // The monitor validates on construction.
  bad = tight_config();
  bad.window = -1.0;
  EXPECT_THROW(SloMonitor(bad, 1), std::invalid_argument);
}

TEST(SloMonitor, DisabledMonitorNeverAlerts) {
  SloConfig off;
  SloMonitor mon(off, 2);
  EXPECT_EQ(mon.on_completion(0, 1.0, 99.0), nullptr);
  EXPECT_EQ(mon.completions(0), 0u);
  EXPECT_FALSE(mon.summary({"a", "b"}).active);
}

TEST(SloMonitor, FireNeedsEvidenceFloorAndThreshold) {
  SloMonitor mon(tight_config(), 1);
  // Three straight misses: burn is 10x but n < min_window_tasks — no alert.
  EXPECT_EQ(mon.on_completion(0, 1.0, 5.0), nullptr);
  EXPECT_EQ(mon.on_completion(0, 1.1, 5.0), nullptr);
  EXPECT_EQ(mon.on_completion(0, 1.2, 5.0), nullptr);
  EXPECT_FALSE(mon.alerting(0));
  EXPECT_DOUBLE_EQ(mon.miss_rate(0), 1.0);
  // Fourth completion reaches the floor; still burning -> fire.
  const SloAlert* alert = mon.on_completion(0, 1.3, 0.5);
  ASSERT_NE(alert, nullptr);
  EXPECT_TRUE(alert->fire);
  EXPECT_EQ(alert->window_tasks, 4u);
  EXPECT_DOUBLE_EQ(alert->miss_rate, 0.75);
  EXPECT_DOUBLE_EQ(alert->burn, 7.5);
  EXPECT_TRUE(mon.alerting(0));
  // Staying above threshold does not re-fire.
  EXPECT_EQ(mon.on_completion(0, 1.4, 5.0), nullptr);
  EXPECT_EQ(mon.alerts().size(), 1u);
}

TEST(SloMonitor, ClearsWhenBurnDropsBelowThreshold) {
  SloMonitor mon(tight_config(), 1);
  for (int i = 0; i < 4; ++i) mon.on_completion(0, 1.0 + 0.1 * i, 5.0);
  ASSERT_TRUE(mon.alerting(0));
  // Dilute the window with hits until miss rate falls under 20%.
  const SloAlert* cleared = nullptr;
  double t = 2.0;
  for (int i = 0; i < 30 && !cleared; ++i, t += 0.1)
    cleared = mon.on_completion(0, t, 0.5);
  ASSERT_NE(cleared, nullptr);
  EXPECT_FALSE(cleared->fire);
  EXPECT_LT(cleared->burn, 2.0);
  EXPECT_FALSE(mon.alerting(0));
  ASSERT_EQ(mon.alerts().size(), 2u);
  EXPECT_TRUE(mon.alerts()[0].fire);
  EXPECT_FALSE(mon.alerts()[1].fire);
}

TEST(SloMonitor, WindowEvictionIsStrict) {
  SloMonitor mon(tight_config(), 1);  // window 10s
  mon.on_completion(0, 0.0, 5.0);     // miss at t = 0
  mon.on_completion(0, 5.0, 0.5);
  // At t = 10.0 the horizon is 0.0; the t = 0 event is NOT older than the
  // horizon (strict <), so the miss still counts.
  mon.on_completion(0, 10.0, 0.5);
  EXPECT_DOUBLE_EQ(mon.miss_rate(0), 1.0 / 3.0);
  // Just past the horizon it leaves the window (lifetime misses stay).
  mon.on_completion(0, 10.0001, 0.5);
  EXPECT_DOUBLE_EQ(mon.miss_rate(0), 0.0);
  EXPECT_EQ(mon.misses(0), 1u);
  EXPECT_EQ(mon.completions(0), 4u);
}

TEST(SloMonitor, ClassesAreIndependent) {
  SloMonitor mon(tight_config(), 2);
  for (int i = 0; i < 4; ++i) {
    mon.on_completion(0, 1.0 + 0.1 * i, 5.0);  // class 0 burns
    mon.on_completion(1, 1.0 + 0.1 * i, 0.5);  // class 1 is healthy
  }
  EXPECT_TRUE(mon.alerting(0));
  EXPECT_FALSE(mon.alerting(1));
  EXPECT_EQ(mon.misses(1), 0u);
  // Out-of-range class indices are ignored, not UB.
  EXPECT_EQ(mon.on_completion(7, 1.0, 5.0), nullptr);
}

TEST(SloMonitor, SummaryTracksMaxBurnAndSkipsIdleClasses) {
  SloMonitor mon(tight_config(), 3);
  for (int i = 0; i < 4; ++i) mon.on_completion(2, 1.0 + 0.1 * i, 5.0);
  mon.on_completion(0, 1.0, 0.5);
  // Class 1 never completed anything: it is omitted from the summary.
  const SloSummary s = mon.summary({"camera", "idle", "sensor"});
  EXPECT_TRUE(s.active);
  EXPECT_DOUBLE_EQ(s.deadline, 1.0);
  ASSERT_EQ(s.classes.size(), 2u);
  EXPECT_EQ(s.classes[0].name, "camera");  // sorted by name
  EXPECT_EQ(s.classes[0].completions, 1u);
  EXPECT_EQ(s.classes[0].misses, 0u);
  EXPECT_EQ(s.classes[1].name, "sensor");
  EXPECT_EQ(s.classes[1].completions, 4u);
  EXPECT_EQ(s.classes[1].misses, 4u);
  EXPECT_EQ(s.classes[1].alerts_fired, 1u);
  EXPECT_DOUBLE_EQ(s.classes[1].max_burn, 10.0);  // the all-miss peak
  ASSERT_EQ(s.alerts.size(), 1u);
  EXPECT_EQ(s.alerts[0].cls, "sensor");
  EXPECT_TRUE(s.alerts[0].fire);

  // A class index past the provided name table gets a stable fallback name.
  SloMonitor unnamed(tight_config(), 2);
  unnamed.on_completion(1, 1.0, 0.5);
  const SloSummary u = unnamed.summary({});
  ASSERT_EQ(u.classes.size(), 1u);
  EXPECT_EQ(u.classes[0].name, "class1");
}

TEST(SloMonitor, AlertJsonlFormatIsExactAndDeterministic) {
  const auto drive = [](SloMonitor& mon) {
    for (int i = 0; i < 4; ++i) mon.on_completion(0, 1.0 + 0.25 * i, 5.0);
    for (int i = 0; i < 30; ++i) mon.on_completion(0, 2.0 + 0.25 * i, 0.5);
  };
  SloMonitor mon(tight_config(), 1);
  drive(mon);
  std::ostringstream out;
  mon.write_alerts_jsonl(out, {"sensor"});
  const std::string text = out.str();
  std::istringstream lines(text);
  std::string fire_line, clear_line, extra;
  ASSERT_TRUE(std::getline(lines, fire_line));
  ASSERT_TRUE(std::getline(lines, clear_line));
  EXPECT_FALSE(std::getline(lines, extra));
  EXPECT_EQ(fire_line,
            "{\"t\":1.75,\"class\":\"sensor\",\"event\":\"fire\","
            "\"miss_rate\":1,\"burn\":10,\"window_tasks\":4}");
  // 4 misses + 16 hits leave burn 40/21 < 2 at the 17th hit (t = 6.0).
  EXPECT_EQ(clear_line.substr(0, clear_line.find("\"miss_rate\"")),
            "{\"t\":6,\"class\":\"sensor\",\"event\":\"clear\",");

  // Identical completion streams render identical bytes (the thread-count
  // invariance contract at the unit level).
  SloMonitor again(tight_config(), 1);
  drive(again);
  std::ostringstream out2;
  again.write_alerts_jsonl(out2, {"sensor"});
  EXPECT_EQ(out2.str(), text);

  // The summary's JSON embeds the same alert objects.
  std::ostringstream sum;
  mon.summary({"sensor"}).to_json(sum);
  EXPECT_NE(sum.str().find("\"deadline\":1"), std::string::npos);
  EXPECT_NE(sum.str().find(fire_line), std::string::npos);
  EXPECT_EQ(sum.str().find('\n'), std::string::npos);
}

TEST(SloMonitor, FireAndClearHysteresisExactlyAtBoundaries) {
  // burn == threshold must fire (>=) while burn == threshold must NOT
  // clear (strict <): the hysteresis comparisons are asymmetric on
  // purpose so a class sitting exactly on the threshold latches.
  SloConfig cfg = tight_config();  // target 0.1, threshold 2 -> 20% fires
  cfg.min_window_tasks = 5;
  SloMonitor mon(cfg, 1);
  // 1 miss + 3 hits: n = 4 < floor, no alert even though burn = 2.5.
  mon.on_completion(0, 1.0, 5.0);
  mon.on_completion(0, 1.1, 0.5);
  mon.on_completion(0, 1.2, 0.5);
  EXPECT_EQ(mon.on_completion(0, 1.3, 0.5), nullptr);
  EXPECT_FALSE(mon.alerting(0));
  // 5th completion: miss_rate = 1/5 = 0.2, burn = exactly 2.0 -> fires.
  const SloAlert* fired = mon.on_completion(0, 1.4, 0.5);
  ASSERT_NE(fired, nullptr);
  EXPECT_TRUE(fired->fire);
  EXPECT_EQ(fired->window_tasks, 5u);
  EXPECT_DOUBLE_EQ(fired->burn, 2.0);
  // Another hit leaves burn = 2/6*10... no: 1 miss / 6 = 0.1667, burn
  // 1.667 < 2 -> clears. First pin the latch at exactly 2.0: a second
  // monitor fed misses so burn stays exactly on the threshold.
  SloMonitor latch(cfg, 1);
  for (int i = 0; i < 4; ++i) latch.on_completion(0, 1.0 + 0.1 * i, 0.5);
  latch.on_completion(0, 1.4, 5.0);  // 1/5 missed: burn = 2.0, fire
  ASSERT_TRUE(latch.alerting(0));
  // 1 more miss + 3 hits inside the window: 2/9 -> burn 2.22; then a hit
  // makes 2/10 -> burn exactly 2.0 again. Strict < means NO clear.
  latch.on_completion(0, 1.5, 5.0);
  for (int i = 0; i < 3; ++i) latch.on_completion(0, 1.6 + 0.1 * i, 0.5);
  EXPECT_EQ(latch.on_completion(0, 1.9, 0.5), nullptr);
  EXPECT_TRUE(latch.alerting(0));
  EXPECT_DOUBLE_EQ(latch.burn_rate(0), 2.0);
}

TEST(SloMonitor, EvictionAtWindowBoundaryDrivesClear) {
  // The fire was caused by misses that age out: the clear transition must
  // happen on the first completion after they cross the strict horizon,
  // not one event earlier (inclusive boundary) or later. All timestamps
  // are binary-exact (multiples of 1/16) so `t - window` lands exactly on
  // an event time and the strict-< eviction is what the test exercises.
  SloMonitor mon(tight_config(), 1);  // window 10 s, floor 4
  for (const double t : {1.0, 1.25, 1.5, 1.75}) mon.on_completion(0, t, 5.0);
  ASSERT_TRUE(mon.alerting(0));
  // At t = 11.75 the horizon is exactly 1.75: the 1.0/1.25/1.5 misses
  // leave, the t = 1.75 miss sits ON the horizon and must still count —
  // window = {miss, hit} -> miss_rate 0.5, burn 5 >= 2, no clear.
  EXPECT_EQ(mon.on_completion(0, 11.75, 0.5), nullptr);
  EXPECT_TRUE(mon.alerting(0));
  EXPECT_DOUBLE_EQ(mon.miss_rate(0), 0.5);
  // One tick past the horizon the last miss leaves: burn 0 < 2 -> clear.
  const SloAlert* cleared = mon.on_completion(0, 11.8125, 0.5);
  ASSERT_NE(cleared, nullptr);
  EXPECT_FALSE(cleared->fire);
  EXPECT_DOUBLE_EQ(cleared->miss_rate, 0.0);
  EXPECT_FALSE(mon.alerting(0));
}

}  // namespace
}  // namespace leime::obs
