#include "obs/trace_buffer.h"

#include <map>
#include <ostream>
#include <stdexcept>

#include "util/output.h"

namespace leime::obs {

using util::json_escape;
using util::num;

namespace {

constexpr double kMicros = 1e6;  // sim seconds -> trace microseconds

}  // namespace

void TraceBuffer::add_span(SpanEvent span) {
  if (span.t_end < span.t_begin)
    throw std::invalid_argument("TraceBuffer: span ends before it begins");
  spans_.push_back(std::move(span));
}

void TraceBuffer::add_mark(MarkEvent mark) { marks_.push_back(std::move(mark)); }

void TraceBuffer::write_chrome_trace(std::ostream& out) const {
  // Deterministic tid assignment: sorted track names, independent of the
  // order events were emitted in.
  std::map<std::string, int> tids;
  for (const auto& s : spans_) tids.emplace(s.track, 0);
  for (const auto& m : marks_) tids.emplace(m.track, 0);
  int next_tid = 1;
  for (auto& [track, tid] : tids) tid = next_tid++;

  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  for (const auto& [track, tid] : tids) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(track) << "\"}}";
  }
  for (const auto& s : spans_) {
    sep();
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tids.at(s.track)
        << ",\"name\":\"" << json_escape(s.phase) << "\",\"cat\":\"task\""
        << ",\"ts\":" << num(s.t_begin * kMicros)
        << ",\"dur\":" << num((s.t_end - s.t_begin) * kMicros)
        << ",\"args\":{\"task\":" << s.task_id << ",\"device\":" << s.device
        << ",\"attempt\":" << s.attempt << ",\"outcome\":\""
        << json_escape(s.outcome) << "\"}}";
  }
  for (const auto& m : marks_) {
    sep();
    out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tids.at(m.track)
        << ",\"name\":\"" << json_escape(m.name) << "\",\"cat\":\"fault\""
        << ",\"s\":\"t\",\"ts\":" << num(m.t * kMicros) << ",\"args\":{";
    if (m.has_task()) out << "\"task\":" << m.task_id;
    out << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace leime::obs
