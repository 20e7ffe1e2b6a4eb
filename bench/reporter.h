// bench::Reporter — machine-readable benchmark results (DESIGN.md §9).
//
// The micro benches used to print wall times to stdout and let a human
// eyeball regressions. Reporter turns each bench run into a BENCH_<name>.json
// record that scripts/bench_compare.py can diff against a checked-in
// baseline:
//
//   * timing: warmup rounds (discarded) then `repeats` measured rounds,
//     summarised with robust statistics (median + MAD + robust CV, see
//     util::robust_summarize) so one preempted round cannot move the
//     estimate — min-of-rounds proved flaky on shared runners;
//   * counters: exact integer work counts (tasks simulated, cost-model
//     evaluations). These are deterministic for a fixed seed, so the
//     regression gate compares them strictly even across hosts;
//   * rates: derived throughput (work / median wall), informational only;
//   * metadata: host fingerprint (uname, cpu model, hardware threads) and
//     git commit, so the comparer knows when wall-clock numbers are from a
//     different machine and must be skipped. Deliberately no timestamps —
//     two runs of the same commit on the same host differ only in the
//     measured rounds.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/stats.h"

namespace leime::bench {

/// One named measurement with its rounds and derived statistics.
struct BenchCase {
  std::string name;
  int warmup = 0;
  std::vector<double> rounds_s;  ///< measured wall-clock rounds, in order
  util::RobustSummary wall;      ///< robust_summarize(rounds_s)

  /// Deterministic integer work counters (strict cross-host gate).
  std::map<std::string, std::uint64_t> counters;
  /// Derived throughput etc. (informational, never gated).
  std::map<std::string, double> rates;
};

/// Identifies the machine a record was measured on: "uname-machine/cpu
/// model/threads". bench_compare only trusts wall-clock deltas when the
/// fingerprints match.
std::string host_fingerprint();

/// Collects cases and writes the BENCH_<name>.json record.
class Reporter {
 public:
  struct Options {
    int warmup = 1;   ///< discarded rounds before measuring
    int repeats = 7;  ///< measured rounds per case
  };

  explicit Reporter(std::string bench_name) : Reporter(bench_name, Options{}) {}
  Reporter(std::string bench_name, Options opts);

  /// Calls `fn` warmup + repeats times, timing the measured rounds.
  /// Returns the case so the caller can attach counters/rates. The
  /// reference stays valid for the Reporter's lifetime — cases are stored
  /// in a std::deque precisely so later run_case/add_case calls cannot
  /// invalidate it.
  BenchCase& run_case(const std::string& name,
                      const std::function<void()>& fn);

  /// Adopts rounds the caller timed itself (e.g. obs_overhead's
  /// interleaved round-robin, where variants must alternate within one
  /// loop and a per-case run_case would serialise them). Same reference
  /// stability as run_case.
  BenchCase& add_case(const std::string& name, std::vector<double> rounds_s,
                      int warmup = 0);

  const std::string& name() const { return name_; }
  const Options& options() const { return opts_; }
  const std::deque<BenchCase>& cases() const { return cases_; }

  /// Human summary table: case, median, MAD, CV, counters.
  void print_table(std::ostream& out) const;

  /// The BENCH record as a JSON string (schema 1, see header comment).
  std::string to_json() const;

  /// Writes to_json() to `path` through util::write_file (fsynced; throws
  /// std::runtime_error on failure).
  void write_json(const std::string& path) const;

  /// Default output filename: BENCH_<bench_name>.json.
  std::string default_path() const { return "BENCH_" + name_ + ".json"; }

 private:
  std::string name_;
  Options opts_;
  // Deque, not vector: growth never moves existing elements, so the
  // BenchCase& handed out by run_case/add_case survives later calls.
  std::deque<BenchCase> cases_;
};

}  // namespace leime::bench
