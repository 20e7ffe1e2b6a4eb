// Unit contracts of the policy core: quantization determinism, the memo
// cache's capacity/eviction contract, config validation, engine
// degeneration to the reference search, and metric publication. The
// equivalence *properties* (warm ≡ cold, cache-hit ≡ recompute,
// batched ≡ sequential) live in policy_diff_test.cpp.
#include "policy/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "models/zoo.h"
#include "policy/quantize.h"
#include "policy/warm_start.h"

namespace leime::policy {
namespace {

// --- quantization -----------------------------------------------------

TEST(Quantize, SameValueSameBucketAcrossCalls) {
  for (double v : {1e-9, 0.37, 1.0, 5.0, 1e12}) {
    EXPECT_EQ(quantize_log(v, 4), quantize_log(v, 4)) << v;
  }
}

TEST(Quantize, DoublingShiftsByPerOctave) {
  // One octave apart => exactly per_octave buckets apart, at any mantissa.
  for (int per_octave : {1, 4, 16}) {
    for (double v : {0.3, 1.0, 1.5, 777.25}) {
      EXPECT_EQ(quantize_log(2.0 * v, per_octave),
                quantize_log(v, per_octave) + per_octave)
          << "v=" << v << " per_octave=" << per_octave;
    }
  }
}

TEST(Quantize, NearbyValuesShareABucket) {
  // A 1% perturbation moves at most one sub-bucket at 4/octave.
  const int a = quantize_log(1.000, 4);
  const int b = quantize_log(1.009, 4);
  EXPECT_LE(std::abs(a - b), 1);
}

TEST(Quantize, NonPositiveAndNonFiniteCollapseToSentinel) {
  const auto sentinel = std::numeric_limits<std::int32_t>::min();
  EXPECT_EQ(quantize_log(0.0, 4), sentinel);
  EXPECT_EQ(quantize_log(-1.0, 4), sentinel);
  EXPECT_EQ(quantize_log(std::numeric_limits<double>::quiet_NaN(), 4),
            sentinel);
  EXPECT_EQ(quantize_log(std::numeric_limits<double>::infinity(), 4),
            sentinel);
}

TEST(Quantize, RejectsBadResolution) {
  EXPECT_THROW(quantize_log(1.0, 0), std::invalid_argument);
}

TEST(Quantize, FingerprintSeparatesProfiles) {
  const auto a = profile_fingerprint(models::make_squeezenet());
  const auto b = profile_fingerprint(models::make_inception_v3());
  EXPECT_NE(a, b);
  EXPECT_EQ(a, profile_fingerprint(models::make_squeezenet()));
}

TEST(Quantize, EnvBitsEqualIsExact) {
  core::Environment a = core::testbed_environment();
  core::Environment b = a;
  EXPECT_TRUE(env_bits_equal(a, b));
  b.net.dev_edge_bw = std::nextafter(b.net.dev_edge_bw, 1e300);
  EXPECT_FALSE(env_bits_equal(a, b));
  // Signed zero: numerically equal, bit-distinct — must not match, or a
  // cached replay could diverge from a recompute.
  core::Environment c = a;
  core::Environment d = a;
  c.net.dev_edge_lat = 0.0;
  d.net.dev_edge_lat = -0.0;
  EXPECT_FALSE(env_bits_equal(c, d));
}

TEST(Quantize, CacheKeyEqualityFollowsBuckets) {
  const auto fp = profile_fingerprint(models::make_squeezenet());
  core::Environment a = core::testbed_environment();
  core::Environment near = a;
  near.net.dev_edge_bw *= 1.0001;  // same log bucket at 4/octave
  core::Environment far = a;
  far.net.dev_edge_bw *= 8.0;  // three octaves away
  EXPECT_EQ(make_cache_key(fp, a, 4), make_cache_key(fp, near, 4));
  EXPECT_FALSE(make_cache_key(fp, a, 4) == make_cache_key(fp, far, 4));
  EXPECT_FALSE(make_cache_key(fp, a, 4) == make_cache_key(fp + 1, a, 4));
}

// --- memo cache contract ----------------------------------------------

core::ExitSettingResult result_with_cost(double cost) {
  core::ExitSettingResult r;
  r.combo = {1, 2, 3};
  r.cost = cost;
  return r;
}

TEST(ExitCache, RejectsBadConstruction) {
  EXPECT_THROW(ExitSettingCache(0, 4), std::invalid_argument);
  EXPECT_THROW(ExitSettingCache(8, 0), std::invalid_argument);
}

TEST(ExitCache, HitRequiresExactEnvironment) {
  ExitSettingCache cache(8, 4);
  const core::Environment env = core::testbed_environment();
  EXPECT_EQ(cache.lookup(1, env), nullptr);
  cache.insert(1, env, result_with_cost(2.5));
  const auto* hit = cache.lookup(1, env);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 2.5);
  // Same quantized bucket, different exact bits: a miss, never a wrong
  // answer (the exact-match guard).
  core::Environment near = env;
  near.net.dev_edge_bw = std::nextafter(near.net.dev_edge_bw, 1e300);
  EXPECT_EQ(cache.lookup(1, near), nullptr);
  EXPECT_EQ(cache.lookup(2, env), nullptr);  // other model, same env
}

TEST(ExitCache, EvictsLeastRecentlyUsed) {
  ExitSettingCache cache(2, 4);
  core::Environment env_a = core::testbed_environment();
  core::Environment env_b = env_a;
  env_b.net.dev_edge_bw *= 64.0;
  core::Environment env_c = env_a;
  env_c.net.dev_edge_bw /= 64.0;

  EXPECT_FALSE(cache.insert(1, env_a, result_with_cost(1.0)));
  EXPECT_FALSE(cache.insert(1, env_b, result_with_cost(2.0)));
  EXPECT_EQ(cache.size(), 2u);
  // Touch A so B becomes the LRU entry, then insert C: B must go.
  ASSERT_NE(cache.lookup(1, env_a), nullptr);
  EXPECT_TRUE(cache.insert(1, env_c, result_with_cost(3.0)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.lookup(1, env_a), nullptr);
  EXPECT_EQ(cache.lookup(1, env_b), nullptr);
  EXPECT_NE(cache.lookup(1, env_c), nullptr);
}

TEST(ExitCache, OverwriteInPlaceNeverEvicts) {
  ExitSettingCache cache(2, 4);
  core::Environment env_a = core::testbed_environment();
  core::Environment env_b = env_a;
  env_b.net.dev_edge_bw *= 64.0;
  cache.insert(1, env_a, result_with_cost(1.0));
  cache.insert(1, env_b, result_with_cost(2.0));
  EXPECT_FALSE(cache.insert(1, env_a, result_with_cost(9.0)));
  EXPECT_EQ(cache.size(), 2u);
  const auto* hit = cache.lookup(1, env_a);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 9.0);
  EXPECT_NE(cache.lookup(1, env_b), nullptr);
}

// --- config + engine --------------------------------------------------

TEST(PolicyConfig, ValidateRejectsBadKnobs) {
  Config bad_capacity;
  bad_capacity.cache_capacity = 0;
  EXPECT_THROW(bad_capacity.validate(), std::invalid_argument);
  Config bad_octave;
  bad_octave.quant_per_octave = 0;
  EXPECT_THROW(bad_octave.validate(), std::invalid_argument);
  bad_octave.quant_per_octave = 65;
  EXPECT_THROW(bad_octave.validate(), std::invalid_argument);
  Config defaults;
  EXPECT_NO_THROW(defaults.validate());
  EXPECT_FALSE(defaults.enabled());
  defaults.warm_start = true;
  EXPECT_TRUE(defaults.enabled());
}

TEST(Engine, DefaultsDegenerateToColdSearch) {
  const auto profile = models::make_inception_v3();
  const core::CostModel cm(profile, core::testbed_environment());
  Engine engine;
  Incumbent incumbent;
  const auto got = engine.exit_setting(cm, &incumbent);
  const auto want = core::branch_and_bound_exit_setting(cm);
  EXPECT_EQ(got.combo, want.combo);
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_TRUE(incumbent.valid);
  EXPECT_EQ(incumbent.combo, want.combo);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.cold_starts, 1u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.warm_starts, 0u);
}

TEST(Engine, MemoCacheHitsOnRepeatedObservation) {
  const auto profile = models::make_squeezenet();
  const core::CostModel cm(profile, core::testbed_environment());
  Config config;
  config.memo_cache = true;
  Engine engine(config);
  const auto first = engine.exit_setting(cm);
  const auto second = engine.exit_setting(cm);
  EXPECT_EQ(first.combo, second.combo);
  EXPECT_EQ(first.cost, second.cost);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(Engine, RejectsInvalidConfig) {
  Config config;
  config.cache_capacity = 0;
  EXPECT_THROW(Engine{config}, std::invalid_argument);
}

TEST(Engine, PublishMetricsRegistersPolicyCounters) {
  const auto profile = models::make_squeezenet();
  const core::CostModel cm(profile, core::testbed_environment());
  Config config;
  config.memo_cache = true;
  Engine engine(config);
  engine.exit_setting(cm);
  engine.exit_setting(cm);

  obs::MetricsRegistry registry;
  engine.publish_metrics(registry);
  const auto snap = registry.snapshot();
  const auto value_of = [&](const std::string& name) -> std::uint64_t {
    for (const auto& c : snap.counters)
      if (c.name == name) return c.value;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(value_of("leime_policy_cache_hits_total"), 1u);
  EXPECT_EQ(value_of("leime_policy_cache_misses_total"), 1u);
  EXPECT_EQ(value_of("leime_policy_cache_evictions_total"), 0u);
  EXPECT_EQ(value_of("leime_policy_warm_starts_total"), 0u);
  EXPECT_EQ(value_of("leime_policy_warm_pruned_scans_total"), 0u);
  // The miss fell through to the reference search.
  EXPECT_EQ(value_of("leime_policy_cold_starts_total"), 1u);
  EXPECT_EQ(value_of("leime_policy_batch_groups_total"), 0u);
  EXPECT_EQ(value_of("leime_policy_batch_reused_total"), 0u);
  for (const auto& c : snap.counters)
    EXPECT_TRUE(obs::valid_metric_name(c.name)) << c.name;
}

TEST(WarmStart, IncumbentCompatibility) {
  EXPECT_TRUE(incumbent_compatible({1, 2, 16}, 16));
  EXPECT_TRUE(incumbent_compatible({7, 15, 16}, 16));
  EXPECT_FALSE(incumbent_compatible({0, 2, 16}, 16));   // e1 below range
  EXPECT_FALSE(incumbent_compatible({2, 2, 16}, 16));   // not strictly inc.
  EXPECT_FALSE(incumbent_compatible({1, 16, 16}, 16));  // e2 == m
  EXPECT_FALSE(incumbent_compatible({1, 2, 8}, 16));    // stale model size
}

TEST(WarmStart, RejectsIncompatibleIncumbent) {
  const auto profile = models::make_squeezenet();
  const core::CostModel cm(profile, core::testbed_environment());
  std::vector<double> scratch;
  EXPECT_THROW(
      warm_start_branch_and_bound(cm, {0, 1, profile.num_units()}, scratch),
      std::invalid_argument);
}

}  // namespace
}  // namespace leime::policy
