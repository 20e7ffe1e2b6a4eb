// Host-side wall-clock self-profiler (DESIGN.md §9).
//
// Everything else in the observability stack measures *simulated* time;
// this measures what running LEIME itself costs on the host: where the DES
// event loop, the §III-C branch-and-bound search and the runtime executor
// spend wall-clock nanoseconds.
//
// Design:
//   * Instrumentation sites are macros. `LEIME_PROF_SCOPE("leime.sim.run")`
//     opens an RAII section for the enclosing scope;
//     `LEIME_PROF_COUNT("leime.core.exit_setting.bb.pruned", n)` bumps a
//     free-running work counter. Section/counter names are interned once
//     per site (function-local static) and must match
//     ^leime\.[a-z0-9_.]+$ — dot-separated, so they can never collide with
//     the underscore-only metric namespace of obs::MetricsRegistry
//     (enforced at intern time and statically by
//     scripts/lint_metric_names.sh).
//   * Recording is per-thread and lock-free on the hot path: each thread
//     owns a section-tree of aggregation nodes (count, total ns,
//     log-bucket duration histogram — the same obs::Histogram geometry the
//     metrics registry uses) plus a fixed-capacity ring buffer of closed
//     spans for trace export. The only synchronisation is a mutex taken
//     once per thread at registration and once at report time.
//   * Reports merge threads deterministically: all aggregation is over
//     integers (counts, nanosecond totals, histogram buckets), children
//     sort by section name, and quantiles derive from bucket counts — so
//     the merged tree is identical no matter how the OS interleaved the
//     threads. Span rings are ordered by thread registration order.
//   * Runtime gate: sections cost one relaxed atomic load when
//     set_enabled(false) (the default). Compile-time gate: building with
//     -DLEIME_PROF=OFF defines LEIME_PROF_DISABLED and both macros expand
//     to nothing — the hot paths carry zero profiler code
//     (tests/prof/profiler_disabled_test.cpp proves the expansion).
//
// Exports: a human table (to_text), chrome://tracing JSON of the span
// rings (to_chrome_trace, wall-clock microseconds), and collapsed-stack
// text (to_collapsed, "root;child;leaf <self_ns>" per line) that
// flamegraph.pl or speedscope render directly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace leime::prof {

/// Index into the global interned-name table.
using SectionId = std::uint32_t;

/// True iff `name` matches ^leime\.[a-z0-9_.]+$.
bool valid_section_name(const std::string& name);

/// Interns a section name (idempotent); throws std::invalid_argument on a
/// name that fails valid_section_name. Thread-safe.
SectionId intern_section(const char* name);

/// Interns a work-counter name under the same naming contract.
SectionId intern_counter(const char* name);

/// Runtime gate. Default off: every section site is one relaxed atomic
/// load. Flipping it mid-scope is safe — open sections always close their
/// own frame — but spans straddling the flip may be lost.
void set_enabled(bool on);
bool enabled();

/// Drops all recorded sections, spans and counters (interned names stay).
/// Call only while no instrumented code is running on other threads. A
/// section that is open across a reset() is dropped — its destructor sees
/// the cleared stack and records nothing — rather than corrupting state.
void reset();

/// RAII section. Construct through LEIME_PROF_SCOPE, not directly.
class ScopedSection {
 public:
  explicit ScopedSection(SectionId id);
  ~ScopedSection();
  ScopedSection(const ScopedSection&) = delete;
  ScopedSection& operator=(const ScopedSection&) = delete;

 private:
  bool live_;
};

/// Bumps counter `id` by `n` (no-op while disabled).
void count(SectionId id, std::uint64_t n = 1);

/// One node of the merged section tree.
struct ReportNode {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< inclusive wall time
  std::uint64_t self_ns = 0;   ///< total minus direct children's totals
  double p50_ns = 0.0;         ///< per-invocation duration quantiles
  double p95_ns = 0.0;
  std::vector<ReportNode> children;  ///< sorted by name
};

/// One closed span from a thread's ring buffer (for trace export).
struct ReportSpan {
  std::string name;
  int tid = 0;  ///< thread registration order, 0-based
  std::uint64_t t_begin_ns = 0;
  std::uint64_t t_end_ns = 0;
};

/// A deterministic freeze of everything recorded so far.
struct Report {
  std::vector<ReportNode> roots;  ///< sorted by name
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< sorted
  std::vector<ReportSpan> spans;  ///< by (tid, t_begin, longest-first)
  std::uint64_t dropped_spans = 0;  ///< ring overwrites across all threads

  bool empty() const {
    return roots.empty() && counters.empty() && spans.empty();
  }

  /// Human-readable section tree + counters.
  void to_text(std::ostream& out) const;

  /// Chrome trace-event JSON of the span rings ("X" events, wall-clock
  /// microseconds relative to the earliest span).
  void to_chrome_trace(std::ostream& out) const;

  /// Collapsed-stack (flamegraph) text: one "a;b;c <self_ns>" line per
  /// tree node, in deterministic path order.
  void to_collapsed(std::ostream& out) const;
};

/// Merges every thread's recordings into one Report. Thread-safe, but the
/// aggregate is only stable if instrumented code is quiescent.
Report report();

/// Writes `report.to_chrome_trace` / `to_collapsed` to `path` through
/// util::write_file; throws std::runtime_error on write failure.
void write_chrome_trace_file(const std::string& path, const Report& rep);
void write_collapsed_file(const std::string& path, const Report& rep);

}  // namespace leime::prof

// ---------------------------------------------------------------- macros

#define LEIME_PROF_CONCAT_INNER(a, b) a##b
#define LEIME_PROF_CONCAT(a, b) LEIME_PROF_CONCAT_INNER(a, b)

#if !defined(LEIME_PROF_DISABLED)

/// Opens a profiler section covering the rest of the enclosing scope.
#define LEIME_PROF_SCOPE(name)                                          \
  static const ::leime::prof::SectionId LEIME_PROF_CONCAT(              \
      leime_prof_sid_, __LINE__) = ::leime::prof::intern_section(name); \
  const ::leime::prof::ScopedSection LEIME_PROF_CONCAT(                 \
      leime_prof_scope_, __LINE__)(                                     \
      LEIME_PROF_CONCAT(leime_prof_sid_, __LINE__))

/// Bumps a profiler work counter by `n`.
#define LEIME_PROF_COUNT(name, n)                                         \
  do {                                                                    \
    static const ::leime::prof::SectionId LEIME_PROF_CONCAT(              \
        leime_prof_cid_, __LINE__) = ::leime::prof::intern_counter(name); \
    ::leime::prof::count(LEIME_PROF_CONCAT(leime_prof_cid_, __LINE__),    \
                         (n));                                            \
  } while (0)

#else  // LEIME_PROF_DISABLED: both macros vanish entirely.

#define LEIME_PROF_SCOPE(name) static_cast<void>(0)
#define LEIME_PROF_COUNT(name, n) static_cast<void>(0)

#endif  // LEIME_PROF_DISABLED
