#pragma once

/// \file
/// \brief LogHistogram: a mergeable, fixed-memory log-bucketed histogram.
/// Shared by the engine's latency telemetry and the metrics registry, so it
/// lives in common/ (the registry must not depend on engine/).

#include <cstddef>
#include <cstdint>

namespace albic {

/// \brief A mergeable, fixed-memory log-bucketed histogram of microsecond
/// latencies.
///
/// Values are bucketed log-linearly (HdrHistogram-style): values below
/// 2^kSubBits land in exact unit-wide buckets, and every octave above is
/// split into 2^kSubBits sub-buckets, bounding the relative quantile error
/// at 2^-kSubBits (6.25%) while the whole histogram stays a few KiB of
/// plain counters. Negative values clamp into the underflow (zero) bucket;
/// values at or above kMaxTrackable clamp into the overflow bucket and
/// report kMaxTrackable. Recording is branch-light and allocation-free, so
/// per-batch recording sits on the hot path; merging is element-wise
/// addition, so merged histograms do not depend on merge order.
class LogHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 16 per octave
  /// Largest exponent tracked: values in [2^kMaxExponent, 2^(kMaxExponent+1))
  /// still land in real buckets; >= 2^(kMaxExponent+1) overflows. 2^31 us is
  /// ~36 minutes — far past any latency this engine can produce.
  static constexpr int kMaxExponent = 30;
  static constexpr int kNumBuckets =
      (kMaxExponent - kSubBits + 1) * kSubBuckets + kSubBuckets;
  static constexpr int kOverflowBucket = kNumBuckets;
  static constexpr int64_t kMaxTrackable = (int64_t{1} << (kMaxExponent + 1));

  LogHistogram() { Clear(); }

  /// \brief Records one value (microseconds; negatives clamp to 0).
  void Record(int64_t value_us) { RecordN(value_us, 1); }

  /// \brief Records \p n occurrences of the same value.
  void RecordN(int64_t value_us, int64_t n);

  /// \brief Element-wise accumulation of \p other into this histogram.
  void Merge(const LogHistogram& other);

  void Clear();

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// \brief Exact extrema and mean of the recorded values (not bucketed).
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return count_ > 0 ? max_ : 0; }
  double Mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// \brief Value at percentile \p p in [0, 100], interpolated within its
  /// bucket and clamped to the exact recorded extrema; 0 when empty.
  int64_t Percentile(double p) const;

  /// \brief Bucket index a value lands in (exposed for edge-case tests).
  static int BucketIndex(int64_t value_us);
  /// \brief Smallest value mapping to bucket \p idx.
  static int64_t BucketLowerBound(int idx);
  /// \brief First value past bucket \p idx (exclusive upper bound).
  static int64_t BucketUpperBound(int idx);

  int64_t bucket_count(int idx) const { return buckets_[idx]; }

 private:
  int64_t buckets_[kNumBuckets + 1];  // + overflow
  int64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace albic
