// LogHistogram: bucket-edge behaviour (underflow, overflow, exact small
// values), randomized differential percentiles against a sorted-sample
// ground truth, and cross-histogram merge equivalence (the property the
// registry's per-period histogram merge relies on).

#include "engine/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace albic::engine {
namespace {

/// Ground truth: nearest-rank percentile over the raw samples.
int64_t ExactPercentile(std::vector<int64_t> sorted, double p) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(p / 100.0 * static_cast<double>(n) + 0.5));
  rank = std::min(rank, n);
  return sorted[static_cast<size_t>(rank - 1)];
}

TEST(LogHistogramTest, EmptyReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Percentile(50.0), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(LogHistogramTest, SmallValuesAreExact) {
  // Values below kSubBuckets each own a unit-wide bucket: percentiles over
  // them are exact, not approximate.
  LogHistogram h;
  for (int64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
    h.Record(v);
    EXPECT_EQ(LogHistogram::BucketLowerBound(LogHistogram::BucketIndex(v)), v);
    EXPECT_EQ(LogHistogram::BucketUpperBound(LogHistogram::BucketIndex(v)),
              v + 1);
  }
  EXPECT_EQ(h.count(), LogHistogram::kSubBuckets);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), LogHistogram::kSubBuckets - 1);
  EXPECT_EQ(h.Percentile(100.0), LogHistogram::kSubBuckets - 1);
}

TEST(LogHistogramTest, UnderflowClampsToZeroBucket) {
  LogHistogram h;
  h.Record(-5);
  h.Record(-1);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Percentile(99.0), 0);
}

TEST(LogHistogramTest, OverflowClampsToMaxTrackable) {
  LogHistogram h;
  h.Record(LogHistogram::kMaxTrackable);          // first overflowing value
  h.Record(LogHistogram::kMaxTrackable * 1000);   // far past the range
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.bucket_count(LogHistogram::kOverflowBucket), 2);
  EXPECT_EQ(h.max(), LogHistogram::kMaxTrackable);
  EXPECT_EQ(h.Percentile(99.0), LogHistogram::kMaxTrackable);
  // The largest in-range value still lands in a real bucket.
  EXPECT_LT(LogHistogram::BucketIndex(LogHistogram::kMaxTrackable - 1),
            LogHistogram::kOverflowBucket);
}

TEST(LogHistogramTest, BucketEdgesAreContiguous) {
  // Every bucket's upper bound is the next bucket's lower bound, and each
  // boundary value maps into the bucket it lower-bounds.
  for (int idx = 0; idx < LogHistogram::kNumBuckets; ++idx) {
    EXPECT_EQ(LogHistogram::BucketUpperBound(idx),
              LogHistogram::BucketLowerBound(idx + 1))
        << "bucket " << idx;
    EXPECT_EQ(LogHistogram::BucketIndex(LogHistogram::BucketLowerBound(idx)),
              idx)
        << "bucket " << idx;
  }
}

TEST(LogHistogramTest, SingleValueReportsItExactly) {
  LogHistogram h;
  h.RecordN(12345, 7);
  EXPECT_EQ(h.Percentile(0.0), 12345);
  EXPECT_EQ(h.Percentile(50.0), 12345);
  EXPECT_EQ(h.Percentile(100.0), 12345);
  EXPECT_DOUBLE_EQ(h.Mean(), 12345.0);
}

TEST(LogHistogramTest, RandomizedDifferentialPercentiles) {
  // Mixed distributions spanning the whole bucket range; the histogram's
  // percentile must stay within the log-bucket relative error (2^-kSubBits)
  // of the sorted-sample ground truth.
  const double rel_tol = 1.0 / (1 << LogHistogram::kSubBits);
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    LogHistogram h;
    std::vector<int64_t> samples;
    const int n = 1000 + static_cast<int>(rng.Index(9000));
    for (int i = 0; i < n; ++i) {
      int64_t v;
      switch (rng.Index(3)) {
        case 0:  // uniform small
          v = static_cast<int64_t>(rng.Index(500));
          break;
        case 1:  // log-uniform over ~9 decades
          v = static_cast<int64_t>(std::pow(10.0, rng.Uniform(0.0, 9.0)));
          break;
        default:  // heavy tail around 1ms
          v = static_cast<int64_t>(1000.0 * std::exp(rng.Uniform(-2.0, 4.0)));
          break;
      }
      samples.push_back(v);
      h.Record(v);
    }
    std::sort(samples.begin(), samples.end());
    ASSERT_EQ(h.count(), n);
    EXPECT_EQ(h.min(), samples.front());
    EXPECT_EQ(h.max(), samples.back());
    for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
      const int64_t exact = ExactPercentile(samples, p);
      const int64_t approx = h.Percentile(p);
      // Allow one extra unit for nearest-rank vs interpolation skew in
      // addition to the relative bucket width.
      const double tol = rel_tol * static_cast<double>(exact) + 1.0;
      EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact), tol)
          << "trial " << trial << " p" << p;
    }
  }
}

TEST(LogHistogramTest, MergeMatchesPooledRecording) {
  // Split one sample stream across 4 histograms (as 4 published periods
  // do), merge them, and require bit-identical buckets and percentiles to
  // recording everything into one histogram.
  Rng rng(99);
  LogHistogram pooled;
  LogHistogram parts[4];
  for (int i = 0; i < 20000; ++i) {
    const int64_t v =
        static_cast<int64_t>(std::pow(10.0, rng.Uniform(0.0, 7.0)));
    pooled.Record(v);
    parts[rng.Index(4)].Record(v);
  }
  LogHistogram merged;
  for (LogHistogram& part : parts) merged.Merge(part);
  ASSERT_EQ(merged.count(), pooled.count());
  EXPECT_EQ(merged.min(), pooled.min());
  EXPECT_EQ(merged.max(), pooled.max());
  for (int idx = 0; idx <= LogHistogram::kNumBuckets; ++idx) {
    ASSERT_EQ(merged.bucket_count(idx), pooled.bucket_count(idx))
        << "bucket " << idx;
  }
  for (const double p : {1.0, 25.0, 50.0, 75.0, 99.0, 99.99}) {
    EXPECT_EQ(merged.Percentile(p), pooled.Percentile(p)) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(merged.Mean(), pooled.Mean());
}

TEST(LogHistogramTest, ClearResets) {
  LogHistogram h;
  h.RecordN(500, 10);
  h.Clear();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50.0), 0);
  h.Record(7);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 7);
}

TEST(LatencySummaryTest, FromPeriodReportsPercentiles) {
  LatencyPeriodStats period;
  period.EnableFor(/*num_operators=*/2, /*num_key_groups=*/4);
  for (int i = 1; i <= 100; ++i) period.e2e_us.Record(i * 10);
  period.queue_us.Record(42);
  const LatencySummary s = LatencySummary::FromPeriod(period);
  EXPECT_EQ(s.e2e_count, 100);
  EXPECT_NEAR(static_cast<double>(s.e2e_p50_us), 500.0, 500.0 / 16 + 1);
  EXPECT_NEAR(static_cast<double>(s.e2e_p99_us), 990.0, 990.0 / 16 + 1);
  EXPECT_EQ(s.e2e_max_us, 1000);
  EXPECT_GT(s.queue_p99_us, 0);
  // Disabled periods summarize to zeros.
  const LatencySummary empty = LatencySummary::FromPeriod(LatencyPeriodStats{});
  EXPECT_EQ(empty.e2e_count, 0);
  EXPECT_EQ(empty.e2e_p99_us, 0);
}

}  // namespace
}  // namespace albic::engine
