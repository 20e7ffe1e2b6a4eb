#include "sim/resources.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/check.h"

namespace leime::sim {
namespace {

TEST(FifoProcessor, SingleJobTiming) {
  EventQueue q;
  FifoProcessor cpu(q, "cpu", 100.0);
  double finish = -1.0;
  cpu.submit(250.0, JobClass::kBlock1, [&](double t) { finish = t; });
  EXPECT_EQ(cpu.pending(JobClass::kBlock1), 1);
  q.run_all();
  EXPECT_DOUBLE_EQ(finish, 2.5);
  EXPECT_EQ(cpu.pending(JobClass::kBlock1), 0);
}

TEST(FifoProcessor, FifoOrderingAndBackToBack) {
  EventQueue q;
  FifoProcessor cpu(q, "cpu", 10.0);
  std::vector<double> finishes;
  for (int i = 0; i < 3; ++i)
    cpu.submit(10.0, JobClass::kBlock1,
               [&](double t) { finishes.push_back(t); });
  q.run_all();
  ASSERT_EQ(finishes.size(), 3u);
  EXPECT_DOUBLE_EQ(finishes[0], 1.0);
  EXPECT_DOUBLE_EQ(finishes[1], 2.0);
  EXPECT_DOUBLE_EQ(finishes[2], 3.0);
}

TEST(FifoProcessor, LateSubmissionStartsAtNow) {
  EventQueue q;
  FifoProcessor cpu(q, "cpu", 10.0);
  double finish = -1.0;
  q.schedule(5.0, [&] {
    cpu.submit(10.0, JobClass::kBlock2, [&](double t) { finish = t; });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(finish, 6.0);
}

TEST(FifoProcessor, TracksClassesSeparately) {
  EventQueue q;
  FifoProcessor cpu(q, "cpu", 1.0);
  cpu.submit(10.0, JobClass::kBlock1, [](double) {});
  cpu.submit(10.0, JobClass::kBlock2, [](double) {});
  cpu.submit(10.0, JobClass::kBlock1, [](double) {});
  EXPECT_EQ(cpu.pending(JobClass::kBlock1), 2);
  EXPECT_EQ(cpu.pending(JobClass::kBlock2), 1);
  q.run_all();
  EXPECT_EQ(cpu.pending(JobClass::kBlock1), 0);
  EXPECT_EQ(cpu.pending(JobClass::kBlock2), 0);
}

TEST(FifoProcessor, Validation) {
  EventQueue q;
  EXPECT_THROW(FifoProcessor(q, "bad", 0.0), std::invalid_argument);
  FifoProcessor cpu(q, "cpu", 1.0);
  EXPECT_THROW(cpu.submit(-1.0, JobClass::kBlock1, [](double) {}),
               std::invalid_argument);
}

TEST(Link, TransferTimingSerializationPlusLatency) {
  EventQueue q;
  Link link(q, "l", 100.0, 0.5);
  double t1 = -1.0, t2 = -1.0;
  link.transfer(200.0, [&](double t) { t1 = t; });  // 2s ser + 0.5 lat
  link.transfer(100.0, [&](double t) { t2 = t; });  // starts at 2, +1 +0.5
  q.run_all();
  EXPECT_DOUBLE_EQ(t1, 2.5);
  EXPECT_DOUBLE_EQ(t2, 3.5);
}

TEST(Link, PropagationIsPipelined) {
  // Second transfer can start while the first is still propagating.
  EventQueue q;
  Link link(q, "l", 100.0, 10.0);
  double t1 = -1.0, t2 = -1.0;
  link.transfer(100.0, [&](double t) { t1 = t; });
  link.transfer(100.0, [&](double t) { t2 = t; });
  q.run_all();
  EXPECT_DOUBLE_EQ(t1, 11.0);
  EXPECT_DOUBLE_EQ(t2, 12.0);  // not 22: latency does not hold the link
}

TEST(Link, BandwidthTraceApplies) {
  EventQueue q;
  Link link(q, "l", 100.0, 0.0);
  link.set_bandwidth_trace(util::PiecewiseConstant({{0.0, 100.0}, {5.0, 10.0}}));
  double t1 = -1.0, t2 = -1.0;
  link.transfer(100.0, [&](double t) { t1 = t; });  // at bw 100 -> 1s
  q.schedule(6.0, [&] {
    link.transfer(100.0, [&](double t) { t2 = t; });  // at bw 10 -> 10s
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 16.0);
}

TEST(Link, LatencyTraceApplies) {
  EventQueue q;
  Link link(q, "l", 100.0, 0.1);
  link.set_latency_trace(util::PiecewiseConstant({{0.0, 0.1}, {5.0, 2.0}}));
  double t = -1.0;
  q.schedule(5.0, [&] { link.transfer(100.0, [&](double tt) { t = tt; }); });
  q.run_all();
  EXPECT_DOUBLE_EQ(t, 8.0);  // 5 + 1s serialization + 2s latency
}

TEST(Link, Validation) {
  EventQueue q;
  EXPECT_THROW(Link(q, "l", 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(Link(q, "l", 1.0, -0.1), std::invalid_argument);
  Link link(q, "l", 1.0, 0.0);
  EXPECT_THROW(link.transfer(-1.0, [](double) {}), std::invalid_argument);
  EXPECT_THROW(
      link.set_bandwidth_trace(util::PiecewiseConstant::constant(0.0)),
      std::invalid_argument);
  EXPECT_THROW(
      link.set_latency_trace(util::PiecewiseConstant::constant(-1.0)),
      std::invalid_argument);
}

TEST(Link, TraceSettersRejectNan) {
  EventQueue q;
  Link link(q, "l", 1.0, 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(link.set_bandwidth_trace(
                   util::PiecewiseConstant({{0.0, 1.0}, {5.0, nan}})),
               std::invalid_argument);
  EXPECT_THROW(link.set_latency_trace(
                   util::PiecewiseConstant({{0.0, 0.0}, {5.0, nan}})),
               std::invalid_argument);
}

TEST(Link, ZeroByteTransferIsLatencyOnly) {
  EventQueue q;
  Link link(q, "l", 100.0, 0.25);
  double t = -1.0;
  link.transfer(0.0, [&](double tt) { t = tt; });
  q.run_all();
  EXPECT_DOUBLE_EQ(t, 0.25);
}

}  // namespace
}  // namespace leime::sim
namespace leime::sim {
namespace {

int pending_all(const FifoProcessor& cpu) {
  return cpu.pending(JobClass::kBlock1) + cpu.pending(JobClass::kBlock2) +
         cpu.pending(JobClass::kBlock3);
}

TEST(FifoProcessor, RestartResetsPendingCountersAndBusyUntil) {
  EventQueue q;
  FifoProcessor cpu(q, "edge", 10.0);
  std::vector<double> finishes;
  cpu.submit(10.0, JobClass::kBlock1,
             [&](double t) { finishes.push_back(t); });  // finishes at 1.0
  cpu.submit(20.0, JobClass::kBlock2,
             [&](double t) { finishes.push_back(t); });  // finishes at 3.0
  EXPECT_EQ(pending_all(cpu), 2);

  q.schedule(0.5, [&] {
    cpu.restart(0.5);
    EXPECT_EQ(cpu.pending(JobClass::kBlock1), 0);
    EXPECT_EQ(cpu.pending(JobClass::kBlock2), 0);
    EXPECT_DOUBLE_EQ(cpu.busy_until(), 0.5);
    // A post-crash job starts on the now-empty server.
    cpu.submit(5.0, JobClass::kBlock3,
               [&](double t) { finishes.push_back(t); });
    EXPECT_EQ(cpu.pending(JobClass::kBlock3), 1);
  });

  // Pre-crash completions still fire, but must not drive the zeroed
  // counters negative (the pre-epoch-guard bug tripped LEIME_CHECK here).
  EXPECT_NO_THROW(q.run_all());
  ASSERT_EQ(finishes.size(), 3u);
  EXPECT_DOUBLE_EQ(finishes[0], 1.0);   // pre-crash, fires anyway
  EXPECT_DOUBLE_EQ(finishes[1], 1.0);   // 0.5 + 5.0/10.0 post-crash job
  EXPECT_DOUBLE_EQ(finishes[2], 3.0);   // pre-crash, fires anyway
  EXPECT_EQ(pending_all(cpu), 0);
}

TEST(FifoProcessor, DoubleRestartStaysConsistent) {
  EventQueue q;
  FifoProcessor cpu(q, "edge", 10.0);
  for (int crash = 0; crash < 2; ++crash) {
    cpu.submit(100.0, JobClass::kBlock1, [](double) {});
    cpu.restart(q.now());
    EXPECT_EQ(pending_all(cpu), 0);
  }
  EXPECT_NO_THROW(q.run_all());
  EXPECT_EQ(pending_all(cpu), 0);
}

TEST(Link, OutageWindowValidation) {
  EventQueue q;
  Link link(q, "l", 100.0, 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(link.set_outage_windows({{2.0, 1.0}}), util::CheckError);
  EXPECT_THROW(link.set_outage_windows({{1.0, 1.0}}), util::CheckError);
  EXPECT_THROW(link.set_outage_windows({{3.0, 4.0}, {1.0, 2.0}}),
               util::CheckError);  // unsorted
  EXPECT_THROW(link.set_outage_windows({{1.0, 3.0}, {2.0, 4.0}}),
               util::CheckError);  // overlapping
  EXPECT_THROW(link.set_outage_windows({{nan, 1.0}}), util::CheckError);
  EXPECT_THROW(link.set_outage_windows({{1.0, nan}}), util::CheckError);
  EXPECT_THROW(link.set_outage_windows({{1.0, inf}}), util::CheckError);
  // Adjacent windows are disjoint: [1,2) then [2,3) is legal.
  EXPECT_NO_THROW(link.set_outage_windows({{1.0, 2.0}, {2.0, 3.0}}));
}

TEST(Link, TransferStartingAtOutageBoundaries) {
  EventQueue q;
  Link link(q, "l", 100.0, 0.0);
  link.set_outage_windows({{1.0, 2.0}});
  EXPECT_FALSE(link.up_at(1.0));  // [start, end): down at start...
  EXPECT_TRUE(link.up_at(2.0));   // ...up again exactly at end

  double at_start = -1.0, at_end = -1.0;
  // Starting exactly when the window opens: held for its full duration.
  q.schedule(1.0, [&] {
    link.transfer(100.0, [&](double t) { at_start = t; });
  });
  // Starting exactly when the window closes: queued behind the held
  // transfer, no extra hold.
  q.schedule(2.0, [&] {
    link.transfer(100.0, [&](double t) { at_end = t; });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(at_start, 3.0);  // resumes at 2.0, +1s serialization
  EXPECT_DOUBLE_EQ(at_end, 4.0);
}

TEST(Link, TransferStraddlingAnOutageIsHeldNotLost) {
  EventQueue q;
  Link link(q, "l", 100.0, 0.0);
  link.set_outage_windows({{1.0, 3.0}});
  double t1 = -1.0, t2 = -1.0;
  link.transfer(50.0, [&](double t) { t1 = t; });   // fits before the window
  link.transfer(100.0, [&](double t) { t2 = t; });  // 0.5s before, 0.5 after
  q.run_all();
  EXPECT_DOUBLE_EQ(t1, 0.5);
  EXPECT_DOUBLE_EQ(t2, 3.5);  // held, not dropped
}

TEST(Link, ZeroByteTransferDuringOutageWaitsForTheWindow) {
  EventQueue q;
  Link link(q, "l", 100.0, 0.25);
  link.set_outage_windows({{1.0, 2.0}});
  double t = -1.0;
  q.schedule(1.5, [&] { link.transfer(0.0, [&](double tt) { t = tt; }); });
  q.run_all();
  // Control traffic pays no serialization but cannot cross a down link:
  // released at the window end, then pays propagation.
  EXPECT_DOUBLE_EQ(t, 2.25);
}

TEST(Link, ExtraLatencyPerTransfer) {
  EventQueue q;
  Link link(q, "ap", 100.0, 0.5);
  double t1 = -1.0, t2 = -1.0;
  link.transfer(100.0, 0.25, [&](double t) { t1 = t; });
  link.transfer(100.0, 1.0, [&](double t) { t2 = t; });
  q.run_all();
  EXPECT_DOUBLE_EQ(t1, 1.0 + 0.5 + 0.25);
  EXPECT_DOUBLE_EQ(t2, 2.0 + 0.5 + 1.0);
  EXPECT_THROW(link.transfer(1.0, -0.1, [](double) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace leime::sim
