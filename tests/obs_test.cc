// Tests for the obs metrics layer (src/obs/metrics.h): histogram bucket
// boundaries and percentile math against hand-computed references,
// exact aggregation of concurrent counter increments, registry naming
// rules (sharing, lookup, kind-collision death), and a golden pin of
// the Prometheus-style text exposition on a private registry so the
// format cannot drift under the METRICS opcode and the scrape tooling.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace dsketch {
namespace obs {
namespace {

TEST(HistogramBucketsTest, BoundariesArePowersOfTwoWithSharedEdges) {
  // Bucket 0 holds [0, 1]; bucket i > 0 holds (2^(i-1), 2^i].
  EXPECT_EQ(HistogramSnapshot::BucketIndex(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(1), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(2), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(3), 2u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(4), 2u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(5), 3u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(uint64_t{1} << 62), 62u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex((uint64_t{1} << 62) + 1), 63u);
  EXPECT_EQ(HistogramSnapshot::BucketIndex(UINT64_MAX), 63u);

  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(5), 32u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(62), uint64_t{1} << 62);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(63), UINT64_MAX);

  // The index function is the exact inverse of the bounds: every finite
  // bound lands in its own bucket, one past it lands in the next.
  for (size_t i = 0; i + 1 < HistogramSnapshot::kNumBuckets; ++i) {
    const uint64_t bound = HistogramSnapshot::BucketUpperBound(i);
    EXPECT_EQ(HistogramSnapshot::BucketIndex(bound), i) << "bound " << bound;
    EXPECT_EQ(HistogramSnapshot::BucketIndex(bound + 1), i + 1)
        << "bound " << bound;
  }
}

TEST(HistogramPercentileTest, MatchesHandComputedReferences) {
  Histogram empty;
  EXPECT_EQ(empty.Snapshot().Percentile(50), 0.0);

  // 50 samples in bucket 1 ((1,2]) and 50 in bucket 2 ((2,4]): the
  // percentile walk interpolates linearly inside each bucket's bounds.
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(2);
  for (int i = 0; i < 50; ++i) h.Record(4);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.sum, 50u * 2 + 50u * 4);
  EXPECT_DOUBLE_EQ(snap.Percentile(25), 1.5);   // halfway through bucket 1
  EXPECT_DOUBLE_EQ(snap.Percentile(50), 2.0);   // exactly bucket 1's bound
  EXPECT_DOUBLE_EQ(snap.Percentile(75), 3.0);   // halfway through bucket 2
  EXPECT_DOUBLE_EQ(snap.Percentile(100), 4.0);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(snap.Percentile(200), 4.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(-5), snap.Percentile(0));

  // All mass in bucket 0 ([0,1]): interpolation spans [0, 1].
  Histogram ones;
  for (int i = 0; i < 100; ++i) ones.Record(1);
  EXPECT_DOUBLE_EQ(ones.Snapshot().Percentile(50), 0.5);
  EXPECT_DOUBLE_EQ(ones.Snapshot().Percentile(100), 1.0);

  // Overflow bucket: interpolates toward 2^63 (one doubling past the
  // largest finite bound).
  Histogram big;
  big.Record(UINT64_MAX);
  EXPECT_DOUBLE_EQ(big.Snapshot().Percentile(100),
                   static_cast<double>(uint64_t{1} << 62) * 2.0);
}

TEST(HistogramSnapshotTest, SinceSubtractsPerBucketCountAndSum) {
  Histogram h;
  h.Record(3);
  h.Record(300);
  const HistogramSnapshot before = h.Snapshot();
  h.Record(3);
  h.Record(5);
  const HistogramSnapshot delta = h.Snapshot().Since(before);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 8u);
  EXPECT_EQ(delta.buckets[HistogramSnapshot::BucketIndex(3)], 1u);
  EXPECT_EQ(delta.buckets[HistogramSnapshot::BucketIndex(5)], 1u);
  EXPECT_EQ(delta.buckets[HistogramSnapshot::BucketIndex(300)], 0u);
}

TEST(CounterTest, ConcurrentIncrementsAggregateExactly) {
  // Through the global registry, the way real call sites share series.
  Counter& counter = MetricsRegistry::Global().GetCounter(
      "obs_test_concurrent_total");
  Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "obs_test_concurrent_us");
  const uint64_t base = counter.Value();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Inc();
        hist.Record(i & 1023);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // Relaxed atomics lose nothing: totals are exact, not approximate.
  EXPECT_EQ(counter.Value() - base, kThreads * kPerThread);
  EXPECT_EQ(hist.Count(), kThreads * kPerThread);
  uint64_t per_thread_sum = 0;
  for (uint64_t i = 0; i < kPerThread; ++i) per_thread_sum += i & 1023;
  EXPECT_EQ(hist.Sum(), kThreads * per_thread_sum);
}

TEST(GaugeTest, SetAddAndMonotoneRaiseTo) {
  Gauge g;
  g.Set(5);
  EXPECT_EQ(g.Value(), 5);
  g.Add(-2);
  EXPECT_EQ(g.Value(), 3);
  g.RaiseTo(10);
  EXPECT_EQ(g.Value(), 10);
  g.RaiseTo(7);  // never lowers
  EXPECT_EQ(g.Value(), 10);
}

TEST(MetricsRegistryTest, SameNameSharesOneSeries) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("shared_total");
  Counter& b = registry.GetCounter("shared_total");
  EXPECT_EQ(&a, &b);
  a.Inc(3);
  EXPECT_EQ(b.Value(), 3u);
  EXPECT_EQ(registry.size(), 1u);

  // Find never creates, and answers nullptr across kinds.
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
  EXPECT_EQ(registry.FindGauge("shared_total"), nullptr);
  ASSERT_NE(registry.FindCounter("shared_total"), nullptr);
  EXPECT_EQ(registry.FindCounter("shared_total")->Value(), 3u);
}

TEST(MetricsRegistryDeathTest, KindCollisionIsAProgrammerError) {
  MetricsRegistry registry;
  registry.GetCounter("collide_total");
  EXPECT_DEATH(registry.GetGauge("collide_total"), "");
  EXPECT_DEATH(MetricsRegistry::Global().GetCounter(""), "");
}

TEST(MetricsTextTest, GoldenExpositionFormat) {
  // A private registry pins the exact text (the global one carries
  // whatever the rest of the test binary touched).
  MetricsRegistry registry;
  registry.GetGauge("test_depth").Set(-5);
  Histogram& lat = registry.GetHistogram("test_lat_us");
  lat.Record(1);    // bucket 0
  lat.Record(3);    // bucket 2
  lat.Record(100);  // bucket 7 (le=128)
  registry.GetCounter("test_requests_total{op=\"a\"}").Inc(7);
  registry.GetCounter("test_requests_total{op=\"b\"}");
  EXPECT_EQ(registry.DumpText(),
            "# TYPE test_depth gauge\n"
            "test_depth -5\n"
            "# TYPE test_lat_us histogram\n"
            "test_lat_us_bucket{le=\"1\"} 1\n"
            "test_lat_us_bucket{le=\"2\"} 1\n"
            "test_lat_us_bucket{le=\"4\"} 2\n"
            "test_lat_us_bucket{le=\"8\"} 2\n"
            "test_lat_us_bucket{le=\"16\"} 2\n"
            "test_lat_us_bucket{le=\"32\"} 2\n"
            "test_lat_us_bucket{le=\"64\"} 2\n"
            "test_lat_us_bucket{le=\"128\"} 3\n"
            "test_lat_us_bucket{le=\"+Inf\"} 3\n"
            "test_lat_us_sum 104\n"
            "test_lat_us_count 3\n"
            "# TYPE test_requests_total counter\n"
            "test_requests_total{op=\"a\"} 7\n"
            "test_requests_total{op=\"b\"} 0\n");

  // Labeled histograms carry their labels on every sub-series line,
  // joined with le= inside one brace set.
  MetricsRegistry labeled;
  labeled.GetHistogram("lat_us{op=\"q\"}").Record(2);
  EXPECT_EQ(labeled.DumpText(),
            "# TYPE lat_us histogram\n"
            "lat_us_bucket{op=\"q\",le=\"2\"} 1\n"
            "lat_us_bucket{op=\"q\",le=\"+Inf\"} 1\n"
            "lat_us_sum{op=\"q\"} 2\n"
            "lat_us_count{op=\"q\"} 1\n");
}

TEST(MetricsTextTest, PrefixFiltersByFamily) {
  MetricsRegistry registry;
  registry.GetCounter("aaa_x_total").Inc();
  registry.GetCounter("bbb_y_total").Inc(2);
  const std::string only_b = registry.DumpText("bbb_");
  EXPECT_EQ(only_b,
            "# TYPE bbb_y_total counter\n"
            "bbb_y_total 2\n");
  EXPECT_EQ(registry.Snapshot("aaa_").size(), 1u);
  EXPECT_EQ(registry.Snapshot().size(), 2u);
  EXPECT_EQ(registry.DumpText("zzz_"), "");
}

TEST(MetricsBuildTest, BuildModeMatchesCompileConfig) {
  EXPECT_STREQ(MetricsBuildMode(), "on");
}

}  // namespace
}  // namespace obs
}  // namespace dsketch
