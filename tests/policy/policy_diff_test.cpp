// Differential/property suite for the policy core's fast paths: across
// randomized churn traces the engine with memo cache + warm start enabled
// returns the *identical* (combo, cost) the cold reference search returns
// — exact integer equality on the combo and bit-for-bit equality on the
// cost double — and the batched fleet path and the lockstep fleet solvers
// reproduce the sequential per-device loop within 0 ULP. Trace substreams
// are addressed via util::Rng::split so every trace replays bit-for-bit on
// any platform.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/exit_setting.h"
#include "core/offload_policy.h"
#include "core/partition.h"
#include "models/profile.h"
#include "policy/batch.h"
#include "policy/engine.h"
#include "policy/warm_start.h"
#include "util/check.h"
#include "util/rng.h"

namespace leime::policy {
namespace {

/// Random chain profile with monotone exit rates (Theorem 1's assumption;
/// same construction as tests/core/exit_setting_test.cpp).
models::ModelProfile random_profile(int m, util::Rng& rng) {
  std::vector<models::UnitSpec> units;
  std::vector<models::ExitSpec> exits;
  std::vector<double> rates;
  for (int i = 0; i < m; ++i) {
    units.push_back({"u" + std::to_string(i), rng.uniform(1e6, 5e8),
                     rng.uniform(1e3, 5e6)});
    exits.push_back({rng.uniform(1e4, 1e6), 0.0});
    rates.push_back(i + 1 == m ? 1.0 : rng.uniform());
  }
  std::sort(rates.begin(), rates.end());
  rates.back() = 1.0;
  for (int i = 0; i < m; ++i)
    exits[static_cast<std::size_t>(i)].exit_rate =
        rates[static_cast<std::size_t>(i)];
  return models::ModelProfile("rand", 1e5, std::move(units),
                              std::move(exits));
}

core::Environment random_env(util::Rng& rng) {
  core::Environment env;
  env.caps = {rng.uniform(1e9, 4e10), rng.uniform(5e10, 4e11),
              rng.uniform(1e12, 1e13)};
  env.net = {rng.uniform(1e5, 2e7), rng.uniform(0.005, 0.2),
             rng.uniform(1e6, 5e7), rng.uniform(0.01, 0.1)};
  return env;
}

/// Small multiplicative drift: the kind of slot-to-slot bandwidth/load
/// wobble that keeps an incumbent near-optimal.
void drift_env(core::Environment& env, util::Rng& rng) {
  env.net.dev_edge_bw *= rng.uniform(0.9, 1.1);
  env.net.dev_edge_lat *= rng.uniform(0.95, 1.05);
  env.caps.edge_flops *= rng.uniform(0.9, 1.1);
}

// The tentpole property: 1000 randomized churn traces, every step's
// engine result identical to the cold reference. Churn comes in three
// strengths — drift (incumbent stays useful), environment jumps
// (incumbent becomes far from optimal) and model swaps (incumbent becomes
// *incompatible*: different m) — plus replays of earlier environments so
// the memo cache serves exact hits mid-trace.
TEST(PolicyDiff, WarmCacheEngineMatchesColdSearchOnChurnTraces) {
  const util::Rng base(0xD1FFull);
  const int kTraces = 1000;
  const int kSteps = 8;

  std::uint64_t warm_hits = 0, cache_hits = 0, swaps = 0;
  for (int trace = 0; trace < kTraces; ++trace) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(trace));
    Config config;
    config.memo_cache = true;
    config.warm_start = true;
    // Tiny capacities on some traces exercise eviction mid-trace.
    config.cache_capacity = trace % 7 == 0 ? 2 : 64;
    config.quant_per_octave = trace % 3 == 0 ? 1 : 4;
    Engine engine(config);
    Incumbent incumbent;

    int m = static_cast<int>(rng.uniform_int(8, 32));
    models::ModelProfile profile = random_profile(m, rng);
    core::Environment env = random_env(rng);
    std::vector<core::Environment> history;

    for (int step = 0; step < kSteps; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.15) {
        // Model swap: new unit count invalidates the incumbent entirely.
        m = static_cast<int>(rng.uniform_int(8, 32));
        profile = random_profile(m, rng);
        ++swaps;
      } else if (roll < 0.35) {
        env = random_env(rng);  // jump
      } else if (roll < 0.55 && !history.empty()) {
        // Replay an earlier environment bit-for-bit: an exact cache hit.
        env = history[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(history.size()) - 1))];
      } else {
        drift_env(env, rng);
      }
      history.push_back(env);

      const core::CostModel cm(profile, env);
      const auto before = engine.stats();
      const auto fast = engine.exit_setting(cm, &incumbent);
      const auto after = engine.stats();
      const auto cold = core::branch_and_bound_exit_setting(cm);

      ASSERT_EQ(fast.combo, cold.combo)
          << "trace " << trace << " step " << step << " m=" << m;
      // Bit-for-bit: both paths evaluate expected_tct on the same combo.
      ASSERT_EQ(fast.cost, cold.cost)
          << "trace " << trace << " step " << step;
      warm_hits += after.warm_starts - before.warm_starts;
      cache_hits += after.cache_hits - before.cache_hits;
    }
  }
  // The trace mix must actually exercise every path or the property is
  // vacuous.
  EXPECT_GT(warm_hits, 1000u);
  EXPECT_GT(cache_hits, 500u);
  EXPECT_GT(swaps, 300u);
}

// Warm-start in isolation (no cache in front): seeded from last step's
// combo — or a deliberately stale-but-compatible one — the warm search
// returns the cold result on every instance, and its round structure
// matches the cold search exactly.
TEST(PolicyDiff, WarmStartMatchesColdForAnyCompatibleIncumbent) {
  const util::Rng base(0xBB5EEDull);
  std::vector<double> scratch;
  for (int trial = 0; trial < 1000; ++trial) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(trial));
    const int m = static_cast<int>(rng.uniform_int(8, 40));
    const auto profile = random_profile(m, rng);
    core::Environment env = random_env(rng);
    core::ExitCombo seed{1, 2, m};
    for (int step = 0; step < 3; ++step) {
      const core::CostModel cm(profile, env);
      const auto cold = core::branch_and_bound_exit_setting(cm);
      const auto warm = warm_start_branch_and_bound(cm, seed, scratch);
      ASSERT_EQ(warm.result.combo, cold.combo)
          << "trial " << trial << " step " << step << " seed {" << seed.e1
          << "," << seed.e2 << "}";
      ASSERT_EQ(warm.result.cost, cold.cost)
          << "trial " << trial << " step " << step;
      ASSERT_EQ(warm.result.rounds, cold.rounds)
          << "trial " << trial << " step " << step;
      // Next step: genuine incumbent (the optimum) under a drifted env, or
      // an adversarial random compatible seed.
      if (rng.uniform() < 0.5) {
        seed = warm.result.combo;
      } else {
        const int e1 = static_cast<int>(rng.uniform_int(1, m - 2));
        const int e2 = static_cast<int>(rng.uniform_int(e1 + 1, m - 1));
        seed = {e1, e2, m};
      }
      drift_env(env, rng);
    }
  }
}

// Cache-hit ≡ recompute, stated directly: serve a hit, then recompute the
// same observation cold; every field of the replayed result (including
// the original search's work counters) is identical.
TEST(PolicyDiff, CacheHitReplaysTheOriginalComputation) {
  const util::Rng base(0xCACE ^ 0x5EEDull);
  for (int trial = 0; trial < 200; ++trial) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(trial));
    const auto profile =
        random_profile(static_cast<int>(rng.uniform_int(8, 32)), rng);
    const auto env = random_env(rng);
    const core::CostModel cm(profile, env);

    Config config;
    config.memo_cache = true;
    Engine engine(config);
    const auto miss = engine.exit_setting(cm);
    const auto hit = engine.exit_setting(cm);
    const auto cold = core::branch_and_bound_exit_setting(cm);
    ASSERT_EQ(hit.combo, miss.combo);
    ASSERT_EQ(hit.cost, miss.cost);
    ASSERT_EQ(hit.evaluations, miss.evaluations);
    ASSERT_EQ(hit.rounds, miss.rounds);
    ASSERT_EQ(miss.combo, cold.combo);
    ASSERT_EQ(miss.cost, cold.cost);
    ASSERT_EQ(engine.stats().cache_hits, 1u);
  }
}

/// Random but feasible per-slot device state over a shared partition.
core::DeviceSlotState random_state(const core::MeDnnPartition* partition,
                                   util::Rng& rng) {
  core::DeviceSlotState s;
  s.partition = partition;
  s.device_flops = rng.uniform(1e9, 4e10);
  s.edge_share_flops = rng.uniform(1e9, 1e11);
  s.bandwidth = rng.uniform(1e5, 2e7);
  s.latency = rng.uniform(0.001, 0.1);
  s.queue_device = rng.uniform(0.0, 20.0);
  s.queue_edge = rng.uniform(0.0, 20.0);
  s.arrivals = rng.uniform(0.0, 5.0);
  s.uplink_backlog_bytes = rng.uniform(0.0, 1e5);
  s.edge_available = rng.uniform() < 0.9;
  s.config.V = rng.uniform(1.0, 200.0);
  s.config.tau = 1.0;
  return s;
}

// Batched ≡ sequential within 0 ULP, across random fleets with deliberate
// duplicate states (the dedup's bread and butter) under both the exact
// solver and the closed balance rule.
TEST(PolicyDiff, BatchedFleetDecisionsMatchSequentialBitForBit) {
  util::Rng profile_rng(7);
  const auto profile = random_profile(16, profile_rng);
  const auto partition = core::make_partition(profile, {4, 9, 16});
  const core::LeimePolicy leime;
  const core::BalancePolicy balance;
  const util::Rng base(0xBA7C4ull);

  std::uint64_t total_reused = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(trial));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 32));
    std::vector<core::DeviceSlotState> states;
    for (std::size_t i = 0; i < n; ++i) {
      if (!states.empty() && rng.uniform() < 0.4) {
        // Duplicate an earlier device bit-for-bit (homogeneous class).
        states.push_back(states[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(states.size()) - 1))]);
      } else {
        states.push_back(random_state(&partition, rng));
      }
    }
    const core::OffloadPolicy& policy =
        trial % 2 == 0 ? static_cast<const core::OffloadPolicy&>(leime)
                       : balance;

    std::vector<double> batched;
    const auto stats = decide_fleet(policy, states, batched);
    ASSERT_EQ(batched.size(), states.size());
    ASSERT_EQ(stats.groups + stats.reused, states.size());
    total_reused += stats.reused;
    for (std::size_t i = 0; i < states.size(); ++i) {
      const double sequential = policy.decide(states[i]);
      ASSERT_EQ(batched[i], sequential) << "trial " << trial << " dev " << i;
    }
  }
  EXPECT_GT(total_reused, 1000u);  // the dedup path was genuinely hit
}

// The Engine's decide_fleet must match the sequential loop with batch_eq20
// off (the policy's fleet form) and on (same 0-ULP property, one layer up,
// including the stats plumbing).
TEST(PolicyDiff, EngineDecideFleetMatchesAtBothKnobSettings) {
  util::Rng rng(0xF1EE7ull);
  const auto profile = random_profile(12, rng);
  const auto partition = core::make_partition(profile, {3, 7, 12});
  const core::LeimePolicy policy;
  std::vector<core::DeviceSlotState> states;
  for (int i = 0; i < 24; ++i)
    states.push_back(random_state(&partition, rng));
  states[5] = states[2];
  states[20] = states[2];

  Config on;
  on.batch_eq20 = true;
  Engine batched_engine(on);
  Engine plain_engine;  // defaults: sequential
  std::vector<double> batched, plain;
  batched_engine.decide_fleet(policy, states, batched);
  plain_engine.decide_fleet(policy, states, plain);
  ASSERT_EQ(batched.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    ASSERT_EQ(batched[i], plain[i]) << i;
  EXPECT_EQ(batched_engine.stats().batch_reused, 2u);
  EXPECT_EQ(batched_engine.stats().batch_groups, 22u);
  EXPECT_EQ(plain_engine.stats().batch_groups, 0u);
}


// ------------------------------------------ fleet solvers ≡ scalar solvers

/// Hand-built partitions beside the drawn one: both signs of the eq. 8
/// slope, so a backlog over the budget pins the interval at [0,0] (`cap`)
/// or [1,1] (`floor`), and σ1 = 1, where eq. 9's denominator is 0 at x = 0.
std::vector<core::MeDnnPartition> solver_partitions(
    const core::MeDnnPartition& drawn) {
  core::MeDnnPartition cap;  // d0 > (1−σ1)·d1: offloading costs uplink
  cap.mu1 = 5e9;
  cap.mu2 = 1e9;
  cap.d0 = 150e3;
  cap.d1 = 50e3;
  cap.sigma1 = 0.55;
  core::MeDnnPartition floor = cap;  // d0 < (1−σ1)·d1: offloading saves it
  floor.mu1 = 2e9;
  floor.mu2 = 4e9;
  floor.d1 = 300e3;
  floor.sigma1 = 0.3;
  core::MeDnnPartition all_exit = cap;
  all_exit.sigma1 = 1.0;
  return {drawn, cap, floor, all_exit};
}

/// random_state, and one time in two one of the solvers' edge cases.
core::DeviceSlotState edge_case_state(
    const std::vector<core::MeDnnPartition>& parts, util::Rng& rng) {
  const auto& part = parts[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(parts.size()) - 1))];
  auto s = random_state(&part, rng);
  switch (rng.uniform_int(0, 11)) {
    case 0:  // empty slot: probes with a = d = 0
      s.arrivals = 0.0;
      break;
    case 1:  // a backlog over the eq. 8 budget
      s.uplink_backlog_bytes = 1e12;
      break;
    case 2:
      s.config.V = 0.0;
      break;
    case 3:
      s.config.tau = rng.uniform(0.2, 4.0);
      s.latency = std::min(s.latency, 0.5 * s.config.tau);
      break;
    case 4:  // a tiny edge share: eq. 9 may underflow to 0 (the solver throws)
      s.edge_share_flops = std::pow(10.0, -rng.uniform(280.0, 323.0));
      break;
    case 5:
      s.queue_device = 0.0;
      s.queue_edge = 0.0;
      break;
    default:
      break;
  }
  return s;
}

/// How a decision call ended.
enum class Outcome { kReturned, kInvalidArgument, kCheckError };

template <class F>
Outcome outcome_of(F&& f) {
  try {
    f();
    return Outcome::kReturned;
  } catch (const util::CheckError&) {
    return Outcome::kCheckError;
  } catch (const std::invalid_argument&) {
    return Outcome::kInvalidArgument;
  }
}

std::vector<std::unique_ptr<core::OffloadPolicy>> fleet_policies() {
  std::vector<std::unique_ptr<core::OffloadPolicy>> out;
  for (const char* name : {"LEIME", "LEIME-balance", "LEIME+fallback",
                           "LEIME-balance+fallback"})
    out.push_back(core::make_policy(name));
  return out;
}

// The tentpole property of the fleet solvers: over >10^5 generated states,
// every fleet size around the lane count and every edge-availability mix,
// decide_fleet returns decide()'s doubles bit for bit.
TEST(PolicyDiff, FleetSolversMatchScalarBitForBit) {
  util::Rng profile_rng(11);
  const auto profile = random_profile(16, profile_rng);
  const auto parts =
      solver_partitions(core::make_partition(profile, {4, 9, 16}));
  const auto policies = fleet_policies();
  const core::LeimePolicy leime;
  const core::BalancePolicy balance;
  const std::size_t lanes = core::kFleetLanes;
  const std::size_t sizes[] = {0, 1, lanes - 1, lanes, lanes + 1, 1000};
  const util::Rng base(0xF1EE7D1Full);

  std::size_t compared = 0, pinned_lo = 0, pinned_hi = 0, skipped = 0;
  for (int round = 0; round < 100; ++round) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(round));
    for (const std::size_t n : sizes) {
      // 0: edge everywhere, 1: nowhere, 2: mixed.
      const auto availability = rng.uniform_int(0, 2);
      std::vector<core::DeviceSlotState> states;
      while (states.size() < n) {
        auto s = edge_case_state(parts, rng);
        s.edge_available = availability == 0   ? true
                           : availability == 1 ? false
                                               : rng.uniform() < 0.5;
        // States the scalar solvers throw on are the next test's subject.
        if (outcome_of([&] { leime.decide(s); }) != Outcome::kReturned ||
            outcome_of([&] { balance.decide(s); }) != Outcome::kReturned) {
          ++skipped;
          continue;
        }
        const auto iv = core::feasible_offload_interval(s);
        pinned_lo += iv.lo == 0.0 && iv.hi == 0.0;
        pinned_hi += iv.lo == 1.0 && iv.hi == 1.0;
        states.push_back(s);
      }
      for (const auto& policy : policies) {
        std::vector<double> fleet(n, std::numeric_limits<double>::quiet_NaN());
        policy->decide_fleet(states, fleet);
        for (std::size_t i = 0; i < n; ++i) {
          const double scalar = policy->decide(states[i]);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(fleet[i]),
                    std::bit_cast<std::uint64_t>(scalar))
              << policy->name() << " round " << round << " n " << n
              << " dev " << i << ": fleet " << fleet[i] << " scalar "
              << scalar;
        }
      }
      compared += n;
    }
  }
  EXPECT_GE(compared, 100000u);
  // The edge cases were genuinely hit.
  EXPECT_GT(pinned_lo, 100u);
  EXPECT_GT(pinned_hi, 100u);
  EXPECT_GT(skipped, 100u);
}

// A state the scalar path throws on throws the same exception type from the
// fleet path: alone, between valid devices, and (in the scalar loop's
// order) when two different failures share one fleet.
TEST(PolicyDiff, FleetSolversThrowWhereScalarThrows) {
  util::Rng profile_rng(12);
  const auto profile = random_profile(16, profile_rng);
  const auto parts =
      solver_partitions(core::make_partition(profile, {4, 9, 16}));
  const auto policies = fleet_policies();
  util::Rng rng(0x7A120ull);

  std::vector<core::DeviceSlotState> bad;
  for (int i = 0; i < 200; ++i) {  // tiny edge shares: eq. 9 underflows
    auto s = random_state(&parts[static_cast<std::size_t>(i) % parts.size()],
                          rng);
    s.edge_share_flops = std::pow(10.0, -rng.uniform(300.0, 323.0));
    s.edge_available = true;
    bad.push_back(s);
  }
  const auto valid = random_state(&parts[0], rng);
  auto nan_queue = valid;
  nan_queue.queue_device = std::numeric_limits<double>::quiet_NaN();
  auto negative_backlog = valid;
  negative_backlog.uplink_backlog_bytes = -1.0;
  auto no_partition = valid;
  no_partition.partition = nullptr;
  auto offline = nan_queue;  // +fallback never validates it
  offline.edge_available = false;
  for (const auto& s : {nan_queue, negative_backlog, no_partition, offline})
    bad.push_back(s);

  std::vector<core::DeviceSlotState> good;
  for (int i = 0; i < 20; ++i) {
    good.push_back(random_state(&parts[0], rng));
    good.back().edge_available = true;
  }

  int seen[3] = {0, 0, 0};
  for (const auto& policy : policies) {
    for (const auto& s : bad) {
      const Outcome scalar = outcome_of([&] { policy->decide(s); });
      ++seen[static_cast<int>(scalar)];
      double x = 0.0;
      EXPECT_EQ(outcome_of([&] {
                  policy->decide_fleet(std::span(&s, 1), std::span(&x, 1));
                }),
                scalar)
          << policy->name();
      auto fleet = good;
      fleet.insert(fleet.begin() + 11, s);
      std::vector<double> out(fleet.size());
      EXPECT_EQ(outcome_of([&] { policy->decide_fleet(fleet, out); }), scalar)
          << policy->name();
    }
    // Two failures in one fleet: the earlier device's exception wins, as in
    // the scalar loop, whichever lane group each lands in.
    const auto check_fails = std::find_if(bad.begin(), bad.end(), [&](auto& s) {
      return outcome_of([&] { policy->decide(s); }) == Outcome::kCheckError;
    });
    ASSERT_NE(check_fails, bad.end()) << policy->name();
    for (const std::size_t at : {std::size_t{0}, std::size_t{3},
                                 std::size_t{9}}) {
      auto fleet = good;
      fleet.insert(fleet.begin() + static_cast<std::ptrdiff_t>(at),
                   *check_fails);
      fleet.insert(fleet.begin() + static_cast<std::ptrdiff_t>(at) + 5,
                   nan_queue);
      std::vector<double> out(fleet.size());
      EXPECT_EQ(outcome_of([&] { policy->decide_fleet(fleet, out); }),
                Outcome::kCheckError)
          << policy->name() << " at " << at;
      std::swap(fleet[at], fleet[at + 5]);
      EXPECT_EQ(outcome_of([&] { policy->decide_fleet(fleet, out); }),
                Outcome::kInvalidArgument)
          << policy->name() << " at " << at;
    }
  }
  EXPECT_GT(seen[static_cast<int>(Outcome::kCheckError)], 100);
  EXPECT_GT(seen[static_cast<int>(Outcome::kInvalidArgument)], 0);
  EXPECT_GT(seen[static_cast<int>(Outcome::kReturned)], 0);
}

// ---------------------------------- endpoint screen ≡ scalar at its flips

/// What the eq. 19 fleet form's screen answers for a valid state.
enum class Screen { kLo, kHi, kDeclined, kDegenerate };

Screen screen_of(const core::DeviceSlotState& s) {
  const auto iv = core::feasible_offload_interval(s);
  if (iv.hi <= iv.lo) return Screen::kDegenerate;  // never screened
  const auto x = core::certified_endpoint(s, iv);
  if (!x) return Screen::kDeclined;
  return *x == iv.lo ? Screen::kLo : Screen::kHi;
}

// The screen's margins matter where its answer flips. From generated states,
// bisect one of Q, H, M, B, F_e or F_d to a flip, then check every state it
// certifies within 1e-15 to 1e-5 relative of the flip against the scalar
// reference, bit for bit.
TEST(PolicyDiff, EndpointScreenMatchesScalarAtItsFlips) {
  util::Rng profile_rng(13);
  const auto profile = random_profile(16, profile_rng);
  const auto parts =
      solver_partitions(core::make_partition(profile, {4, 9, 16}));
  using State = core::DeviceSlotState;
  double State::* const fields[] = {
      &State::queue_device, &State::queue_edge,       &State::arrivals,
      &State::bandwidth,    &State::edge_share_flops, &State::device_flops};
  const util::Rng base(0xF11B5ull);

  std::size_t answers[4] = {0, 0, 0, 0};  // by Screen
  const auto seen = [&](Screen a) { return answers[static_cast<int>(a)]; };
  for (int trial = 0; seen(Screen::kLo) + seen(Screen::kHi) < 1'000'000;
       ++trial) {
    ASSERT_LT(trial, 1'000'000) << "too few certified states near flips";
    util::Rng rng = base.split(static_cast<std::uint64_t>(trial));
    State at = edge_case_state(parts, rng);
    double State::* const field = fields[rng.uniform_int(0, 5)];
    // Search between the drawn value and one up to 10^3 times off.
    double lo = std::max(at.*field, 1e-3);
    double hi = lo * std::pow(10.0, rng.uniform(-3.0, 3.0));
    const auto answer_at = [&](double v) {
      at.*field = v;
      return screen_of(at);
    };
    const Screen lo_answer = answer_at(lo);
    if (answer_at(hi) == lo_answer) continue;
    for (int it = 0; it < 64; ++it) {
      const double mid = std::sqrt(lo * hi);
      if (mid == lo || mid == hi) break;
      (answer_at(mid) == lo_answer ? lo : hi) = mid;
    }
    // The flip, and 40 log-spaced offsets from 1e-15 to 1e-5 on each side.
    for (int j = -40; j <= 40; ++j) {
      const double rel =
          j == 0 ? 0.0 : std::pow(10.0, -15.0 + 10.0 * (std::abs(j) - 1) / 39);
      at.*field = lo * (1.0 + (j < 0 ? -rel : rel));
      const Screen answer = screen_of(at);
      ++answers[static_cast<int>(answer)];
      if (answer != Screen::kLo && answer != Screen::kHi) continue;
      const auto iv = core::feasible_offload_interval(at);
      const double scalar = core::minimize_drift_plus_penalty(at);
      const double screened = answer == Screen::kLo ? iv.lo : iv.hi;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(screened),
                std::bit_cast<std::uint64_t>(scalar))
          << "trial " << trial << " offset " << j << ": screen " << screened
          << " scalar " << scalar;
    }
  }
  EXPECT_GE(seen(Screen::kLo), 10'000u);
  EXPECT_GE(seen(Screen::kHi), 10'000u);
  EXPECT_GE(seen(Screen::kDeclined), 10'000u);
}

}  // namespace
}  // namespace leime::policy
