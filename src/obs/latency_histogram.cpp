#include "obs/latency_histogram.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace zh::obs {

namespace {

const double kLatencyMinValue = std::ldexp(1.0, kLatencyMinExp2);
const double kLatencyMaxValue = std::ldexp(1.0, kLatencyMaxExp2);

}  // namespace

std::size_t latency_bucket_index(double seconds) {
  // The negated comparison also routes NaN into the underflow bucket.
  if (!(seconds >= kLatencyMinValue)) return 0;
  if (seconds >= kLatencyMaxValue) return kLatencyBucketCount - 1;
  int exp = 0;
  const double mantissa = std::frexp(seconds, &exp);  // in [0.5, 1)
  // seconds lives in the octave [2^(exp-1), 2^exp).
  const std::size_t octave =
      static_cast<std::size_t>(exp - 1 - kLatencyMinExp2);
  std::size_t sub = static_cast<std::size_t>(
      (mantissa * 2.0 - 1.0) * static_cast<double>(kLatencySubBuckets));
  if (sub >= kLatencySubBuckets) sub = kLatencySubBuckets - 1;
  return 1 + octave * kLatencySubBuckets + sub;
}

double latency_bucket_lower(std::size_t index) {
  ZH_REQUIRE(index < kLatencyBucketCount, "latency bucket index ", index,
             " out of range");
  if (index == 0) return 0.0;
  if (index == kLatencyBucketCount - 1) return kLatencyMaxValue;
  const std::size_t body = index - 1;
  const std::size_t octave = body / kLatencySubBuckets;
  const std::size_t sub = body % kLatencySubBuckets;
  return std::ldexp(
      1.0 + static_cast<double>(sub) / static_cast<double>(kLatencySubBuckets),
      kLatencyMinExp2 + static_cast<int>(octave));
}

double latency_bucket_upper(std::size_t index) {
  ZH_REQUIRE(index < kLatencyBucketCount, "latency bucket index ", index,
             " out of range");
  if (index == kLatencyBucketCount - 1) {
    return std::numeric_limits<double>::infinity();
  }
  if (index == 0) return kLatencyMinValue;
  return latency_bucket_lower(index + 1);
}

double latency_bucket_mid(std::size_t index) {
  if (index == kLatencyBucketCount - 1) return latency_bucket_lower(index);
  return 0.5 * (latency_bucket_lower(index) + latency_bucket_upper(index));
}

void LatencyHistogram::ensure_buckets() {
  if (buckets_.empty()) buckets_.assign(kLatencyBucketCount, 0);
}

void LatencyHistogram::record(double seconds) {
  ensure_buckets();
  const double v = std::isnan(seconds) ? 0.0 : seconds;
  ++buckets_[latency_bucket_index(seconds)];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (!(q > 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      double v = latency_bucket_mid(i);
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
  }
  return max();
}

double LatencyHistogram::min() const { return count_ > 0 ? min_ : 0.0; }

double LatencyHistogram::max() const { return count_ > 0 ? max_ : 0.0; }

void LatencyHistogram::add_bucket(std::size_t index, std::uint64_t n) {
  ZH_REQUIRE(index < kLatencyBucketCount, "latency bucket index ", index,
             " out of range");
  if (n == 0) return;
  ensure_buckets();
  buckets_[index] += n;
  count_ += n;
}

void LatencyHistogram::set_stats(double sum, double min, double max) {
  sum_ = sum;
  min_ = min;
  max_ = max;
}

}  // namespace zh::obs
