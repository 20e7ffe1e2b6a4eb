#include "util/stats.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace leime::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleObservationVarianceZero) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37 - 3.0;
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

// The empty-accumulator contract documented in stats.h: every accessor —
// including min()/max(), which otherwise would want +/-infinity sentinels —
// returns exactly 0.0 while count() == 0.
TEST(RunningStats, EmptyAccessorsAllReturnExactZero) {
  const RunningStats s;
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

// Min/max after observations must never echo the empty-state 0.0: an
// all-negative stream has a negative max, an all-positive one a positive
// min.
TEST(RunningStats, MinMaxTrackSignedExtremes) {
  RunningStats neg;
  neg.add(-5.0);
  neg.add(-1.0);
  EXPECT_DOUBLE_EQ(neg.min(), -5.0);
  EXPECT_DOUBLE_EQ(neg.max(), -1.0);
  RunningStats pos;
  pos.add(3.0);
  EXPECT_DOUBLE_EQ(pos.min(), 3.0);
  EXPECT_DOUBLE_EQ(pos.max(), 3.0);
}

// The merge-with-empty contract from stats.h: merging an empty shard is a
// bit-exact no-op, and merging into an empty accumulator is a bit-exact
// copy — no tolerance, the doubles must be identical. The snapshot-merge
// determinism of the metrics registry rests on this.
TEST(RunningStats, MergeWithEmptyIsBitExact) {
  RunningStats a;
  for (double v : {0.1, -2.7, 3.14159, 8.0}) a.add(v);
  const RunningStats before = a;
  RunningStats empty;
  a.merge(empty);  // no-op direction
  EXPECT_EQ(a.count(), before.count());
  EXPECT_EQ(a.mean(), before.mean());
  EXPECT_EQ(a.variance(), before.variance());
  EXPECT_EQ(a.min(), before.min());
  EXPECT_EQ(a.max(), before.max());
  EXPECT_EQ(a.sum(), before.sum());

  RunningStats into;
  into.merge(a);  // copy direction
  EXPECT_EQ(into.count(), a.count());
  EXPECT_EQ(into.mean(), a.mean());
  EXPECT_EQ(into.variance(), a.variance());
  EXPECT_EQ(into.min(), a.min());
  EXPECT_EQ(into.max(), a.max());
  EXPECT_EQ(into.sum(), a.sum());
}

TEST(RunningStats, MergeTwoEmptiesStaysEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
}

TEST(Percentile, SingleElementAndErrors) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -0.1), std::invalid_argument);
}

TEST(Percentile, UnsortedInputHandled) {
  std::vector<double> v{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
}

TEST(Summarize, FullSummary) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
}

TEST(Summarize, EmptyIsAllZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(MedianOf, InterpolatesAndHandlesEmpty) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(RobustSummarize, MedianAndMad) {
  const RobustSummary r = robust_summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(r.count, 5u);
  EXPECT_DOUBLE_EQ(r.median, 3.0);
  EXPECT_DOUBLE_EQ(r.mad, 1.0);  // deviations {2,1,0,1,2} -> median 1
  EXPECT_DOUBLE_EQ(r.cv, 1.4826 / 3.0);
  EXPECT_DOUBLE_EQ(r.min, 1.0);
  EXPECT_DOUBLE_EQ(r.max, 5.0);
  EXPECT_DOUBLE_EQ(r.mean, 3.0);
}

// The property the bench gate depends on: one wild outlier round moves
// neither the median nor the MAD materially, while it would drag the mean
// (and a min-of-rounds estimate ignores the spread entirely).
TEST(RobustSummarize, SingleOutlierDoesNotMoveLocationOrScale) {
  const RobustSummary clean = robust_summarize({10.0, 10.1, 9.9, 10.05, 9.95});
  const RobustSummary noisy =
      robust_summarize({10.0, 10.1, 9.9, 10.05, 50.0});
  EXPECT_NEAR(noisy.median, clean.median, 0.11);
  EXPECT_LT(noisy.cv, 0.05);
  EXPECT_GT(noisy.mean, 17.0);  // the mean is the one that blows up
}

TEST(RobustSummarize, EmptyAndZeroMedian) {
  const RobustSummary empty = robust_summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.median, 0.0);
  EXPECT_DOUBLE_EQ(empty.cv, 0.0);
  const RobustSummary zero = robust_summarize({-1.0, 0.0, 1.0});
  EXPECT_DOUBLE_EQ(zero.median, 0.0);
  EXPECT_DOUBLE_EQ(zero.cv, 0.0);  // undefined CV degrades to 0, not inf
}

}  // namespace
}  // namespace leime::util
