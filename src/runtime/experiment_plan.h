// Declarative parameter grids over ScenarioConfig.
//
// An ExperimentPlan is a base scenario plus named axes; expansion takes the
// cross product of all axis values, times `replications`, and yields one
// Cell per combination in row-major order (first axis slowest, replication
// innermost). Each cell gets an independent seed derived with
// util::Rng::derive_seed(base_seed, cell_index), so the result set is a
// pure function of the plan — no matter how many executor threads run it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/run_record.h"
#include "sim/scenario.h"

namespace leime::runtime {

/// How per-cell seeds are derived from the plan's base seed.
enum class SeedMode {
  /// seed = Rng::derive_seed(base_seed, cell_index): splitmix64-mixed
  /// substreams, collision-free across cells and neighbouring bases.
  kSplit,
  /// seed = base_seed + replication: the pre-runtime convention, kept for
  /// replaying seed-numbered results from existing benches (`[runtime]
  /// seed_mode = legacy`). Cells that share a replication number share a
  /// seed.
  kLegacyArithmetic,
};

/// One point on an axis: a printable label plus the config mutation.
struct AxisValue {
  std::string label;
  std::function<void(sim::ScenarioConfig&)> apply;
};

struct Axis {
  std::string name;
  std::vector<AxisValue> values;
};

class ExperimentPlan {
 public:
  explicit ExperimentPlan(sim::ScenarioConfig base) : base_(std::move(base)) {}

  /// Adds an axis; throws std::invalid_argument if `values` is empty.
  ExperimentPlan& add_axis(std::string name, std::vector<AxisValue> values);

  /// Numeric-axis convenience: labels are fmt'd values, `set` applies each.
  ExperimentPlan& add_axis(
      std::string name, const std::vector<double>& values,
      const std::function<void(sim::ScenarioConfig&, double)>& set);

  /// Number of seeded repeats of every grid point; must be >= 1.
  ExperimentPlan& replications(int n);
  ExperimentPlan& base_seed(std::uint64_t seed);
  ExperimentPlan& seed_mode(SeedMode mode);

  const std::vector<Axis>& axes() const { return axes_; }
  std::vector<std::string> axis_names() const;
  int num_replications() const { return replications_; }

  /// Cross product of all axes times replications.
  std::size_t num_cells() const;

  /// Materializes every cell (config mutations and seeds applied),
  /// row-major with replication innermost.
  std::vector<Cell> expand() const;

 private:
  sim::ScenarioConfig base_;
  std::vector<Axis> axes_;
  int replications_ = 1;
  std::uint64_t base_seed_ = 42;
  SeedMode seed_mode_ = SeedMode::kSplit;
};

}  // namespace leime::runtime
