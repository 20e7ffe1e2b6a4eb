#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace leime::obs {
namespace {

TEST(MetricNames, PrefixAndCharsetEnforced) {
  EXPECT_TRUE(valid_metric_name("leime_tasks_total"));
  EXPECT_TRUE(valid_metric_name("leime_queue_p95_2"));
  EXPECT_FALSE(valid_metric_name("leime_"));  // bare prefix
  EXPECT_FALSE(valid_metric_name("tasks_total"));
  EXPECT_FALSE(valid_metric_name("leime_Tasks"));
  EXPECT_FALSE(valid_metric_name("leime_tasks-total"));
  EXPECT_FALSE(valid_metric_name(""));
}

TEST(Counter, MonotoneIncrement) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastValueWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, RejectsBadGeometry) {
  EXPECT_THROW(Histogram({0.0, 1.0, 4}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0, 4}), std::invalid_argument);
  EXPECT_THROW(Histogram({1e-3, 1.0, 0}), std::invalid_argument);
}

TEST(Histogram, UnderflowAndOverflowBuckets) {
  Histogram h({1.0, 100.0, 2});  // buckets [1,10), [10,100)
  h.observe(0.5);    // underflow
  h.observe(-3.0);   // negatives land in underflow too
  h.observe(2.0);    // bucket 0
  h.observe(50.0);   // bucket 1
  h.observe(100.0);  // max_bound itself overflows (half-open top bucket)
  h.observe(1e6);    // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 2u);
  EXPECT_EQ(h.stats().count(), 6u);
  EXPECT_DOUBLE_EQ(h.stats().min(), -3.0);
  EXPECT_DOUBLE_EQ(h.stats().max(), 1e6);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 10.0);
  EXPECT_NEAR(h.upper_bound(1), 100.0, 1e-9);
}

TEST(Histogram, QuantileExactAtExtremesMonotoneInside) {
  Histogram h({1e-3, 1e3, 30});
  for (int i = 1; i <= 1000; ++i) h.observe(i * 0.01);  // 0.01 .. 10.0
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.01);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  EXPECT_LE(p50, p95);
  // Bucket interpolation is within one bucket width of the true quantile.
  EXPECT_NEAR(p50, 5.0, 5.0 * 0.6);
  EXPECT_NEAR(p95, 9.5, 9.5 * 0.6);
  EXPECT_THROW(h.quantile(1.5), std::invalid_argument);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, MergeMatchesCombinedStream) {
  Histogram all({1e-2, 1e2, 16}), a({1e-2, 1e2, 16}), b({1e-2, 1e2, 16});
  for (int i = 0; i < 200; ++i) {
    const double v = 0.05 * (i + 1);
    all.observe(v);
    (i % 2 ? a : b).observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.counts(), all.counts());
  EXPECT_EQ(a.stats().count(), all.stats().count());
  EXPECT_DOUBLE_EQ(a.stats().min(), all.stats().min());
  EXPECT_DOUBLE_EQ(a.stats().max(), all.stats().max());
  EXPECT_NEAR(a.stats().mean(), all.stats().mean(), 1e-12);
  EXPECT_DOUBLE_EQ(a.quantile(0.95), all.quantile(0.95));
}

TEST(Histogram, MergeGeometryMismatchThrows) {
  Histogram a({1e-2, 1e2, 16}), b({1e-2, 1e2, 8});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Registry, ReRegistrationReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("leime_tasks_total", "help");
  Counter& c2 = reg.counter("leime_tasks_total");
  EXPECT_EQ(&c1, &c2);
  Histogram& h1 = reg.histogram("leime_tct_seconds", "", {1e-3, 10.0, 8});
  Histogram& h2 = reg.histogram("leime_tct_seconds", "", {1e-3, 10.0, 8});
  EXPECT_EQ(&h1, &h2);
}

TEST(Registry, CollisionsAndBadNamesThrow) {
  MetricsRegistry reg;
  reg.counter("leime_a");
  EXPECT_THROW(reg.gauge("leime_a"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("leime_a"), std::invalid_argument);
  reg.histogram("leime_h", "", {1e-3, 10.0, 8});
  EXPECT_THROW(reg.histogram("leime_h", "", {1e-3, 10.0, 9}),
               std::invalid_argument);
  EXPECT_THROW(reg.counter("not_prefixed"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("leime_UpperCase"), std::invalid_argument);
}

TEST(Registry, SnapshotFreezesStateInNameOrder) {
  MetricsRegistry reg;
  reg.counter("leime_b").inc(2);
  reg.counter("leime_a").inc(1);
  reg.gauge("leime_g").set(7.0);
  reg.histogram("leime_h").observe(0.5);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "leime_a");
  EXPECT_EQ(snap.counters[1].name, "leime_b");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 7.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].stats.count(), 1u);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(Snapshot{}.empty());
}

TEST(Snapshot, MergeSemanticsPerKind) {
  MetricsRegistry a, b;
  a.counter("leime_c").inc(3);
  b.counter("leime_c").inc(4);
  b.counter("leime_only_b").inc(1);
  a.gauge("leime_g").set(1.0);
  b.gauge("leime_g").set(2.0);
  a.histogram("leime_h", "", {1e-2, 1e2, 8}).observe(0.5);
  b.histogram("leime_h", "", {1e-2, 1e2, 8}).observe(5.0);

  Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0].value, 7u);   // leime_c adds
  EXPECT_EQ(merged.counters[1].value, 1u);   // only-in-b kept
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 2.0);  // last-merged wins
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].stats.count(), 2u);
  EXPECT_DOUBLE_EQ(merged.histograms[0].stats.max(), 5.0);
}

TEST(Snapshot, MergeGeometryMismatchThrows) {
  MetricsRegistry a, b;
  a.histogram("leime_h", "", {1e-2, 1e2, 8});
  b.histogram("leime_h", "", {1e-2, 1e2, 9});
  Snapshot merged = a.snapshot();
  EXPECT_THROW(merged.merge(b.snapshot()), std::invalid_argument);
}

// The determinism contract: merging frozen snapshots must export the same
// bytes as observing the combined stream in one registry.
// Merging shard snapshots in a fixed order is byte-deterministic, and all
// integer-valued state (counter values, bucket counts, observation count)
// matches a single combined stream exactly. The Welford-tracked sum may
// legitimately differ from the sequential stream in the last ulps — float
// addition is not associative — so it gets a tolerance, not byte equality.
TEST(Snapshot, ShardMergeDeterministicAndMatchesCombinedStream) {
  MetricsRegistry all, s1, s2;
  for (int i = 0; i < 100; ++i) {
    const double v = 0.013 * (i + 1);
    all.counter("leime_n").inc();
    all.histogram("leime_v").observe(v);
    MetricsRegistry& shard = i < 50 ? s1 : s2;  // fixed split order
    shard.counter("leime_n").inc();
    shard.histogram("leime_v").observe(v);
  }
  Snapshot merged = s1.snapshot();
  merged.merge(s2.snapshot());
  Snapshot again = s1.snapshot();
  again.merge(s2.snapshot());
  std::ostringstream a, b;
  merged.to_prometheus(a);
  again.to_prometheus(b);
  EXPECT_EQ(a.str(), b.str());  // same shards, same order -> same bytes

  const Snapshot direct = all.snapshot();
  ASSERT_EQ(merged.counters.size(), 1u);
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.counters[0].value, direct.counters[0].value);
  EXPECT_EQ(merged.histograms[0].counts, direct.histograms[0].counts);
  EXPECT_EQ(merged.histograms[0].stats.count(),
            direct.histograms[0].stats.count());
  EXPECT_DOUBLE_EQ(merged.histograms[0].stats.min(),
                   direct.histograms[0].stats.min());
  EXPECT_DOUBLE_EQ(merged.histograms[0].stats.max(),
                   direct.histograms[0].stats.max());
  EXPECT_NEAR(merged.histograms[0].stats.sum(),
              direct.histograms[0].stats.sum(), 1e-9);
}

TEST(Registry, AbsorbFoldsSnapshotBack) {
  MetricsRegistry src;
  src.counter("leime_c").inc(5);
  src.gauge("leime_g").set(9.0);
  src.histogram("leime_h").observe(1.0);

  MetricsRegistry dst;
  dst.counter("leime_c").inc(1);
  dst.absorb(src.snapshot());
  dst.absorb(src.snapshot());
  const Snapshot out = dst.snapshot();
  EXPECT_EQ(out.counters[0].value, 11u);
  EXPECT_DOUBLE_EQ(out.gauges[0].value, 9.0);
  EXPECT_EQ(out.histograms[0].stats.count(), 2u);
}

TEST(Snapshot, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("leime_tasks_total", "tasks seen").inc(3);
  reg.gauge("leime_up").set(1.0);
  reg.histogram("leime_lat_seconds", "latency", {1.0, 100.0, 2})
      .observe(0.5);  // underflow -> folds into the first le bound
  std::ostringstream out;
  reg.snapshot().to_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP leime_tasks_total tasks seen"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE leime_tasks_total counter"), std::string::npos);
  EXPECT_NE(text.find("leime_tasks_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE leime_up gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE leime_lat_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("leime_lat_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("leime_lat_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("leime_lat_seconds_sum 0.5"), std::string::npos);
  EXPECT_NE(text.find("leime_lat_seconds_count 1"), std::string::npos);
}

TEST(Snapshot, JsonlOneObjectPerMetric) {
  MetricsRegistry reg;
  reg.counter("leime_c").inc(2);
  reg.gauge("leime_g").set(0.5);
  reg.histogram("leime_h").observe(1.0);
  std::ostringstream out;
  reg.snapshot().to_jsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find("{\"metric\":\"leime_c\",\"type\":\"counter\","
                      "\"value\":2}"),
            std::string::npos);
  EXPECT_NE(text.find("\"type\":\"histogram\",\"count\":1"),
            std::string::npos);
}

// Exposition-format escaping: HELP text must escape backslash and newline,
// label values additionally double quotes — otherwise a single odd help
// string corrupts every line that follows it in the scrape.
TEST(Snapshot, PrometheusHelpEscaping) {
  MetricsRegistry reg;
  reg.counter("leime_weird", "line1\nline2 with \\backslash").inc(1);
  std::ostringstream out;
  reg.snapshot().to_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP leime_weird line1\\nline2 with "
                      "\\\\backslash\n"),
            std::string::npos);
  // The raw newline must not survive: every line stays parseable.
  EXPECT_EQ(text.find("line1\nline2"), std::string::npos);
}

TEST(Snapshot, PrometheusHistogramHelpEscaping) {
  MetricsRegistry reg;
  reg.histogram("leime_h", "p95\nover\\all", {1.0, 10.0, 2}).observe(2.0);
  std::ostringstream out;
  reg.snapshot().to_prometheus(out);
  EXPECT_NE(out.str().find("# HELP leime_h p95\\nover\\\\all\n"),
            std::string::npos);
}

TEST(Snapshot, JsonlEscapesMetricNameField) {
  // Registered names can never contain quotes, but to_jsonl must stay
  // safe for snapshots built by hand (merge tooling, tests).
  Snapshot snap;
  snap.counters.push_back({"leime_ok", "h", 1});
  snap.counters[0].name = "leime_\"quoted\"";
  std::ostringstream out;
  snap.to_jsonl(out);
  EXPECT_NE(out.str().find("\"metric\":\"leime_\\\"quoted\\\"\""),
            std::string::npos);
}

// Edge cases of the log-bucket histogram exposition: empty, single-sample
// and overflow-only histograms must all emit self-consistent buckets.
TEST(Snapshot, PrometheusEmptyHistogram) {
  MetricsRegistry reg;
  reg.histogram("leime_empty", "", {1.0, 100.0, 2});
  std::ostringstream out;
  reg.snapshot().to_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("leime_empty_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("leime_empty_sum 0"), std::string::npos);
  EXPECT_NE(text.find("leime_empty_count 0"), std::string::npos);
}

TEST(Histogram, SingleSampleQuantilesCollapseToSample) {
  Histogram h({1.0, 100.0, 4});
  h.observe(7.0);
  // Every quantile of a one-sample distribution is the sample; the bucket
  // interpolation must not wander outside the containing bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.0);
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, h.upper_bound(0));      // 7.0 sits in bucket 1 of [1,100)
  EXPECT_LE(p50, h.upper_bound(1));
}

TEST(Histogram, OverflowOnlyQuantilesUseExactExtremes) {
  Histogram h({1.0, 10.0, 2});
  h.observe(500.0);
  h.observe(900.0);
  // All mass in the overflow bucket: quantiles fall back to the exact
  // RunningStats extremes instead of the (meaningless) bucket bounds.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 900.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 500.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 900.0);
}

TEST(Histogram, UnderflowOnlyQuantilesClampToMinBound) {
  Histogram h({1.0, 10.0, 2});
  h.observe(0.25);
  h.observe(0.5);
  const double p50 = h.quantile(0.5);
  EXPECT_LE(p50, 1.0);  // never reports above the underflow bound
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.5);
}

TEST(HistogramQuantileFree, MatchesLiveHistogram) {
  Histogram h({1e-2, 1e2, 12});
  for (int i = 1; i <= 37; ++i) h.observe(0.3 * i);
  for (double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(histogram_quantile(h.options(), h.counts(), h.stats(), q),
                     h.quantile(q));
}

}  // namespace
}  // namespace leime::obs
