#include "obs/trace_buffer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace leime::obs {
namespace {

TEST(TaskSampler, DeterministicOneInN) {
  const TaskSampler none(0);
  EXPECT_FALSE(none.sampled(0));
  EXPECT_FALSE(none.sampled(7));

  const TaskSampler all(1);
  for (std::uint64_t id : {0u, 1u, 2u, 99u}) EXPECT_TRUE(all.sampled(id));

  const TaskSampler third(3);
  EXPECT_TRUE(third.sampled(0));
  EXPECT_FALSE(third.sampled(1));
  EXPECT_FALSE(third.sampled(2));
  EXPECT_TRUE(third.sampled(3));
  EXPECT_TRUE(third.sampled(300));
  EXPECT_EQ(third.every(), 3u);
}

SpanEvent make_span(std::uint64_t task, const std::string& phase,
                    const std::string& track, double t0, double t1) {
  SpanEvent s;
  s.task_id = task;
  s.phase = phase;
  s.track = track;
  s.outcome = "ok";
  s.t_begin = t0;
  s.t_end = t1;
  return s;
}

TEST(TraceBuffer, RejectsNegativeDuration) {
  TraceBuffer buf;
  EXPECT_THROW(buf.add_span(make_span(0, "p", "t", 2.0, 1.0)),
               std::invalid_argument);
  buf.add_span(make_span(0, "p", "t", 2.0, 2.0));  // zero duration is fine
  EXPECT_EQ(buf.spans().size(), 1u);
}

TEST(TraceBuffer, ChromeTraceShape) {
  TraceBuffer buf;
  buf.add_span(make_span(4, "uplink", "device0/tx", 1.5, 2.0));
  MarkEvent mark;
  mark.name = "edge_crash";
  mark.track = "edge";
  mark.t = 3.0;
  buf.add_mark(mark);

  std::ostringstream out;
  buf.write_chrome_trace(out);
  const std::string text = out.str();
  // tids by sorted track name: "device0/tx" = 1, "edge" = 2.
  EXPECT_NE(text.find("\"name\":\"thread_name\",\"args\":"
                      "{\"name\":\"device0/tx\"}"),
            std::string::npos);
  EXPECT_NE(text.find("{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"name\":\"uplink\",\"cat\":\"task\","
                      "\"ts\":1500000,\"dur\":500000"),
            std::string::npos);
  EXPECT_NE(text.find("{\"ph\":\"i\",\"pid\":1,\"tid\":2,"
                      "\"name\":\"edge_crash\",\"cat\":\"fault\","
                      "\"s\":\"t\",\"ts\":3000000"),
            std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(TraceBuffer, TidsIndependentOfEmissionOrder) {
  // Two buffers see the same tracks in opposite order; the sorted-name tid
  // assignment must give both files identical metadata.
  TraceBuffer forward, reverse;
  forward.add_span(make_span(0, "a", "alpha", 0.0, 1.0));
  forward.add_span(make_span(1, "b", "beta", 0.0, 1.0));
  reverse.add_span(make_span(1, "b", "beta", 0.0, 1.0));
  reverse.add_span(make_span(0, "a", "alpha", 0.0, 1.0));

  std::ostringstream f, r;
  forward.write_chrome_trace(f);
  reverse.write_chrome_trace(r);
  // Same tid for the same track in both files.
  EXPECT_NE(f.str().find("\"tid\":1,\"name\":\"thread_name\",\"args\":"
                         "{\"name\":\"alpha\"}"),
            std::string::npos);
  EXPECT_NE(r.str().find("\"tid\":1,\"name\":\"thread_name\",\"args\":"
                         "{\"name\":\"alpha\"}"),
            std::string::npos);
}

// Regression: the "no task" sentinel used to be a literal 0, which made a
// mark for legitimate task 0 indistinguishable from a task-free one. The
// sentinel is now explicit (kNoTask) and task 0 serializes its id.
TEST(TraceBuffer, MarkTaskZeroDistinctFromNoTask) {
  MarkEvent no_task;
  EXPECT_FALSE(no_task.has_task());
  EXPECT_EQ(no_task.task_id, MarkEvent::kNoTask);

  MarkEvent task_zero;
  task_zero.task_id = 0;
  EXPECT_TRUE(task_zero.has_task());

  TraceBuffer buf;
  no_task.name = "edge_crash";
  no_task.track = "edge";
  no_task.t = 1.0;
  buf.add_mark(no_task);
  task_zero.name = "parked";
  task_zero.track = "device0";
  task_zero.t = 2.0;
  buf.add_mark(task_zero);

  std::ostringstream out;
  buf.write_chrome_trace(out);
  const std::string text = out.str();
  // Task 0's mark carries its id; the task-free mark carries none (and
  // never a bogus kNoTask value).
  EXPECT_NE(text.find("\"name\":\"parked\",\"cat\":\"fault\",\"s\":\"t\","
                      "\"ts\":2000000,\"args\":{\"task\":0}"),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"edge_crash\",\"cat\":\"fault\","
                      "\"s\":\"t\",\"ts\":1000000,\"args\":{}"),
            std::string::npos);
  EXPECT_EQ(text.find(std::to_string(MarkEvent::kNoTask)), std::string::npos);
}

TEST(TraceBuffer, EscapesJsonSpecials) {
  TraceBuffer buf;
  buf.add_span(make_span(0, "phase\"q\"", "tr\\ack", 0.0, 1.0));
  std::ostringstream out;
  buf.write_chrome_trace(out);
  EXPECT_NE(out.str().find("phase\\\"q\\\""), std::string::npos);
  EXPECT_NE(out.str().find("tr\\\\ack"), std::string::npos);
}

}  // namespace
}  // namespace leime::obs
