// Log-linear (HDR-style) latency histogram: the value type behind
// MetricKind::kLatency.
//
// Bucket layout. The positive seconds axis is split into octaves
// [2^e, 2^(e+1)) for e in [kLatencyMinExp2, kLatencyMaxExp2), and each
// octave into kLatencySubBuckets equal-width linear sub-buckets. Two
// sentinel buckets bracket the range: bucket 0 catches underflow
// (v < 2^kLatencyMinExp2, zero, negative, NaN) and the last bucket
// catches overflow (v >= 2^kLatencyMaxExp2). With the defaults the
// range spans ~0.93 ns .. 4096 s -- more than 12 orders of magnitude --
// in 2 + 42*32 = 1346 buckets of 8 bytes each.
//
// Error bound. Inside an octave the sub-bucket width is
// 2^e / kLatencySubBuckets, and every value in the octave is >= 2^e, so
// reporting a bucket midpoint is off by at most
// 1 / (2 * kLatencySubBuckets) relative (~1.6% at 32 sub-buckets).
// Quantiles report the midpoint of the bucket holding the requested
// rank, clamped to the observed min/max, so the same bound applies.
//
// Mergeability. A histogram is a vector of counts plus count/sum/
// min/max; the registry merges per-thread bucket arrays by element-wise
// addition, which is exact, associative, and commutative (the double
// `sum` is associative up to float rounding).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace zh::obs {

/// Smallest bucketed magnitude: 2^-30 s (~0.93 ns).
inline constexpr int kLatencyMinExp2 = -30;
/// Overflow above 2^12 s (4096 s).
inline constexpr int kLatencyMaxExp2 = 12;
/// Linear sub-buckets per octave; relative error <= 1/(2*this).
inline constexpr std::size_t kLatencySubBuckets = 32;
inline constexpr std::size_t kLatencyOctaves =
    static_cast<std::size_t>(kLatencyMaxExp2 - kLatencyMinExp2);
/// Underflow + log-linear body + overflow.
inline constexpr std::size_t kLatencyBucketCount =
    2 + kLatencyOctaves * kLatencySubBuckets;

/// Bucket index for a sample in seconds. Total order: NaN/negative/
/// zero/underflow -> 0, overflow -> kLatencyBucketCount - 1.
[[nodiscard]] std::size_t latency_bucket_index(double seconds);

/// Inclusive lower bound of a bucket (0 for the underflow bucket).
[[nodiscard]] double latency_bucket_lower(std::size_t index);

/// Exclusive upper bound of a bucket (+inf for the overflow bucket).
[[nodiscard]] double latency_bucket_upper(std::size_t index);

/// Representative value of a bucket: the midpoint, except the overflow
/// bucket which reports its (finite) lower bound.
[[nodiscard]] double latency_bucket_mid(std::size_t index);

/// Plain (non-atomic) histogram value: what metrics_snapshot() hands
/// out. The bucket vector stays empty until the first sample so a
/// MetricRecord for a non-latency metric costs nothing.
class LatencyHistogram {
 public:
  /// Record one sample in seconds (NaN counts as underflow).
  void record(double seconds);

  /// Value at quantile q in [0, 1] (q clamped): midpoint of the bucket
  /// holding rank ceil(q * count), clamped to [min(), max()]. Returns
  /// 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Bulk-assembly from pre-bucketed counts (registry snapshot path):
  /// adds n samples to one bucket, bumping count() accordingly.
  void add_bucket(std::size_t index, std::uint64_t n);
  /// Companion of add_bucket: install the merged sum/min/max scalars.
  void set_stats(double sum, double min, double max);

 private:
  void ensure_buckets();

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  ///< valid only when count_ > 0
  double max_ = 0.0;
};

}  // namespace zh::obs
