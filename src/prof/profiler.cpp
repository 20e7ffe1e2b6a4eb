#include "prof/profiler.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/output.h"

namespace leime::prof {

namespace {

/// Per-invocation duration histogram geometry: 16 ns .. 10 s, ~2.7
/// log-buckets per decade (the obs::Histogram machinery, reused).
obs::HistogramOptions duration_geometry() { return {16.0, 1e10, 54}; }

/// Spans kept per thread for trace export; older spans are overwritten
/// (drop-oldest), so the rings always hold the tail of the run — which
/// includes the enclosing top-level sections, closed last.
constexpr std::size_t kRingCapacity = 1 << 16;

struct SpanRec {
  SectionId id;
  std::uint64_t t_begin_ns;
  std::uint64_t t_end_ns;
};

/// One aggregation node of a thread's live section tree.
struct Node {
  SectionId id;
  Node* parent;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  obs::Histogram hist{duration_geometry()};
  std::vector<std::unique_ptr<Node>> children;

  Node(SectionId id_, Node* parent_) : id(id_), parent(parent_) {}

  Node* find_or_add(SectionId child_id) {
    for (auto& c : children)
      if (c->id == child_id) return c.get();
    children.push_back(std::make_unique<Node>(child_id, this));
    return children.back().get();
  }
};

constexpr SectionId kRootId = static_cast<SectionId>(-1);

struct ThreadLog {
  Node root{kRootId, nullptr};
  Node* current = &root;
  std::vector<std::pair<Node*, std::uint64_t>> stack;  ///< (node, t_begin)
  std::vector<SpanRec> ring;
  std::uint64_t ring_written = 0;  ///< total spans ever written
  std::vector<std::uint64_t> counters;  ///< indexed by SectionId

  /// Claims the next ring slot (drop-oldest once full) with the end time
  /// still unset; the caller patches t_end_ns after its final timestamp so
  /// the ring write itself stays inside the span being closed.
  SpanRec* add_span_slot(SectionId id, std::uint64_t t0) {
    SpanRec* rec;
    if (ring.size() < kRingCapacity) {
      ring.push_back({id, t0, t0});
      rec = &ring.back();
    } else {
      rec = &ring[ring_written % kRingCapacity];
      *rec = {id, t0, t0};
    }
    ++ring_written;
    return rec;
  }

  void clear() {
    root.children.clear();
    root.count = 0;
    current = &root;
    stack.clear();
    ring.clear();
    ring_written = 0;
    counters.clear();
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::string> names;
  std::unordered_map<std::string, SectionId> ids;
  std::vector<std::unique_ptr<ThreadLog>> threads;
  std::atomic<bool> enabled{false};
};

// Leaked on purpose: instrumented code may run during static destruction.
Registry& reg() {
  static Registry* r = new Registry;
  return *r;
}

ThreadLog& local_log() {
  thread_local ThreadLog* log = nullptr;
  if (!log) {
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    r.threads.push_back(std::make_unique<ThreadLog>());
    log = r.threads.back().get();
  }
  return *log;
}

SectionId intern(const char* name) {
  const std::string s(name);
  if (!valid_section_name(s))
    throw std::invalid_argument(
        "prof: section name '" + s +
        "' does not match ^leime\\.[a-z0-9_.]+$ (see DESIGN.md §9)");
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  auto [it, inserted] =
      r.ids.emplace(s, static_cast<SectionId>(r.names.size()));
  if (inserted) r.names.push_back(s);
  return it->second;
}

}  // namespace

bool valid_section_name(const std::string& name) {
  constexpr const char* prefix = "leime.";
  if (name.rfind(prefix, 0) != 0) return false;
  if (name.size() == 6) return false;  // bare prefix
  for (std::size_t i = 6; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

SectionId intern_section(const char* name) { return intern(name); }
SectionId intern_counter(const char* name) { return intern(name); }

void set_enabled(bool on) {
  reg().enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return reg().enabled.load(std::memory_order_relaxed); }

void reset() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& log : r.threads) log->clear();
}

ScopedSection::ScopedSection(SectionId id) : live_(false) {
  if (!reg().enabled.load(std::memory_order_relaxed)) return;
  // t0 before the node lookup, so the profiler's own entry bookkeeping
  // bills to this section instead of widening the gap the parent cannot
  // explain (the event-loop coverage figure depends on tight gaps).
  const std::uint64_t t0 = util::wall_now_ns();
  ThreadLog& log = local_log();
  Node* node = log.current->find_or_add(id);
  log.stack.emplace_back(node, t0);
  log.current = node;
  live_ = true;
}

ScopedSection::~ScopedSection() {
  if (!live_) return;
  ThreadLog& log = local_log();
  // A reset() issued while this section was open has already cleared the
  // stack (reset() documents that callers must not do this); bail out
  // instead of popping an empty vector so the mistake stays a dropped
  // section rather than memory corruption.
  if (log.stack.empty()) return;
  const auto [node, t0] = log.stack.back();
  // Two timestamps on close: the first feeds the per-invocation duration
  // histogram (pure section time); the second — taken after the histogram
  // update, ring write and stack pop, i.e. after everything expensive on
  // the exit path — closes the span, so the profiler's own bookkeeping is
  // attributed to the section itself rather than to an unexplained gap in
  // the parent (only a patch-store and an add happen after t1).
  const std::uint64_t t_stats = util::wall_now_ns();
  ++node->count;
  node->hist.observe(static_cast<double>(t_stats - t0));
  SpanRec* rec = log.add_span_slot(node->id, t0);
  log.stack.pop_back();
  log.current = log.stack.empty() ? &log.root : log.stack.back().first;
  const std::uint64_t t1 = util::wall_now_ns();
  rec->t_end_ns = t1;
  node->total_ns += t1 - t0;
}

void count(SectionId id, std::uint64_t n) {
  if (!reg().enabled.load(std::memory_order_relaxed)) return;
  ThreadLog& log = local_log();
  if (log.counters.size() <= id) log.counters.resize(id + 1, 0);
  log.counters[id] += n;
}

// ----------------------------------------------------------------- report

namespace {

/// Order-insensitive merge target keyed by section name (std::map keeps
/// children name-sorted, which is the determinism contract).
struct MergedNode {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  obs::Histogram hist{duration_geometry()};
  std::map<std::string, MergedNode> children;
};

void fold(const Node& src, MergedNode& dst,
          const std::vector<std::string>& names) {
  dst.count += src.count;
  dst.total_ns += src.total_ns;
  dst.hist.merge(src.hist);
  for (const auto& child : src.children)
    fold(*child, dst.children[names[child->id]], names);
}

ReportNode freeze(const std::string& name, const MergedNode& node) {
  ReportNode out;
  out.name = name;
  out.count = node.count;
  out.total_ns = node.total_ns;
  out.p50_ns = node.hist.quantile(0.50);
  out.p95_ns = node.hist.quantile(0.95);
  std::uint64_t child_total = 0;
  for (const auto& [child_name, child] : node.children) {
    out.children.push_back(freeze(child_name, child));
    child_total += child.total_ns;
  }
  out.self_ns = node.total_ns > child_total ? node.total_ns - child_total
                                            : 0;
  return out;
}

std::string fmt_ns(std::uint64_t ns) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  if (ns >= 1000000000ull)
    os << static_cast<double>(ns) / 1e9 << " s";
  else if (ns >= 1000000ull)
    os << static_cast<double>(ns) / 1e6 << " ms";
  else if (ns >= 1000ull)
    os << static_cast<double>(ns) / 1e3 << " us";
  else
    os << ns << " ns";
  return os.str();
}

void print_node(std::ostream& out, const ReportNode& node, int depth) {
  out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << node.name
      << "  count=" << node.count << "  total=" << fmt_ns(node.total_ns)
      << "  self=" << fmt_ns(node.self_ns)
      << "  p50=" << fmt_ns(static_cast<std::uint64_t>(node.p50_ns))
      << "  p95=" << fmt_ns(static_cast<std::uint64_t>(node.p95_ns))
      << "\n";
  for (const auto& child : node.children) print_node(out, child, depth + 1);
}

void collapse_node(std::ostream& out, const ReportNode& node,
                   const std::string& prefix) {
  const std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  out << path << " " << node.self_ns << "\n";
  for (const auto& child : node.children) collapse_node(out, child, path);
}

}  // namespace

Report report() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);

  MergedNode merged_root;
  std::map<std::string, std::uint64_t> counters;
  Report out;
  for (std::size_t tid = 0; tid < r.threads.size(); ++tid) {
    const ThreadLog& log = *r.threads[tid];
    for (const auto& child : log.root.children)
      fold(*child, merged_root.children[r.names[child->id]], r.names);
    for (SectionId id = 0; id < log.counters.size(); ++id)
      if (log.counters[id] != 0) counters[r.names[id]] += log.counters[id];
    // Ring spans, oldest first (the ring is circular once full).
    const std::size_t n = log.ring.size();
    const std::size_t start =
        log.ring_written > n ? log.ring_written % kRingCapacity : 0;
    std::vector<ReportSpan> spans;
    spans.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const SpanRec& rec = log.ring[(start + k) % n];
      spans.push_back({r.names[rec.id], static_cast<int>(tid),
                       rec.t_begin_ns, rec.t_end_ns});
    }
    std::sort(spans.begin(), spans.end(),
              [](const ReportSpan& a, const ReportSpan& b) {
                if (a.t_begin_ns != b.t_begin_ns)
                  return a.t_begin_ns < b.t_begin_ns;
                if (a.t_end_ns != b.t_end_ns) return a.t_end_ns > b.t_end_ns;
                return a.name < b.name;
              });
    out.spans.insert(out.spans.end(), spans.begin(), spans.end());
    if (log.ring_written > n) out.dropped_spans += log.ring_written - n;
  }

  for (const auto& [name, node] : merged_root.children)
    out.roots.push_back(freeze(name, node));
  for (const auto& [name, value] : counters)
    out.counters.emplace_back(name, value);
  return out;
}

void Report::to_text(std::ostream& out) const {
  out << "profiler sections (count / total / self / p50 / p95):\n";
  for (const auto& root : roots) print_node(out, root, 1);
  if (!counters.empty()) {
    out << "profiler counters:\n";
    for (const auto& [name, value] : counters)
      out << "  " << name << " = " << value << "\n";
  }
  if (dropped_spans > 0)
    out << "(" << dropped_spans << " spans dropped from full rings)\n";
}

void Report::to_chrome_trace(std::ostream& out) const {
  std::uint64_t t0 = 0;
  bool first_span = true;
  for (const auto& s : spans)
    if (first_span || s.t_begin_ns < t0) {
      t0 = s.t_begin_ns;
      first_span = false;
    }

  out << "[";
  bool first = true;
  std::map<int, bool> tids;
  for (const auto& s : spans) tids[s.tid] = true;
  for (const auto& [tid, _] : tids) {
    out << (first ? "" : ",") << "\n"
        << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"prof-thread-"
        << tid << "\"}}";
    first = false;
  }
  out.precision(3);
  out << std::fixed;
  for (const auto& s : spans) {
    out << (first ? "" : ",") << "\n"
        << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.t_begin_ns - t0) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.t_end_ns - s.t_begin_ns) /
                              1000.0
        << ",\"name\":\"" << s.name << "\"}";
    first = false;
  }
  out << "\n]\n";
}

void Report::to_collapsed(std::ostream& out) const {
  for (const auto& root : roots) collapse_node(out, root, "");
}

void write_chrome_trace_file(const std::string& path, const Report& rep) {
  util::write_file(path, "prof",
                   [&](std::ostream& out) { rep.to_chrome_trace(out); });
}

void write_collapsed_file(const std::string& path, const Report& rep) {
  util::write_file(path, "prof",
                   [&](std::ostream& out) { rep.to_collapsed(out); });
}

}  // namespace leime::prof
