// Latency histogram: bucket indexing is monotone with tight bounds,
// quantiles respect the documented relative-error bound across 12
// orders of magnitude, and the registry round-trips kLatency metrics
// (including across thread retirement and concurrent snapshots). The
// Obs* suite names put this file in the TSan matrix; the concurrent
// tests are written for it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/latency_histogram.hpp"
#include "obs/metrics.hpp"

namespace zh {
namespace {

struct ObsGuard {
  ObsGuard() {
    obs::set_metrics_enabled(false);
    obs::metrics_reset();
  }
  ~ObsGuard() {
    obs::set_metrics_enabled(false);
    obs::metrics_reset();
  }
};

const obs::MetricRecord* find_metric(
    const std::vector<obs::MetricRecord>& all, const std::string& name) {
  for (const obs::MetricRecord& m : all) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

TEST(ObsLatencyBuckets, SentinelsAndBoundaries) {
  using namespace obs;
  EXPECT_EQ(latency_bucket_index(0.0), 0u);
  EXPECT_EQ(latency_bucket_index(-1.0), 0u);
  EXPECT_EQ(latency_bucket_index(std::nan("")), 0u);
  EXPECT_EQ(latency_bucket_index(std::ldexp(1.0, kLatencyMinExp2) / 2), 0u);
  // First body bucket starts exactly at 2^kLatencyMinExp2.
  EXPECT_EQ(latency_bucket_index(std::ldexp(1.0, kLatencyMinExp2)), 1u);
  // Overflow at and above 2^kLatencyMaxExp2.
  EXPECT_EQ(latency_bucket_index(std::ldexp(1.0, kLatencyMaxExp2)),
            kLatencyBucketCount - 1);
  EXPECT_EQ(latency_bucket_index(1e12), kLatencyBucketCount - 1);
  // Largest finite body value lands in the last body bucket.
  EXPECT_EQ(latency_bucket_index(
                std::nextafter(std::ldexp(1.0, kLatencyMaxExp2), 0.0)),
            kLatencyBucketCount - 2);
}

TEST(ObsLatencyBuckets, IndexIsMonotoneAndBoundsContainValues) {
  using namespace obs;
  std::size_t prev = 0;
  for (double v = 1e-9; v < 5000.0; v *= 1.07) {
    const std::size_t idx = latency_bucket_index(v);
    EXPECT_GE(idx, prev) << "index not monotone at v=" << v;
    prev = idx;
    if (idx == 0 || idx == kLatencyBucketCount - 1) continue;
    EXPECT_GE(v, latency_bucket_lower(idx)) << "v=" << v;
    EXPECT_LT(v, latency_bucket_upper(idx)) << "v=" << v;
    const double mid = latency_bucket_mid(idx);
    EXPECT_GE(mid, latency_bucket_lower(idx));
    EXPECT_LE(mid, latency_bucket_upper(idx));
  }
}

TEST(ObsLatencyQuantile, RelativeErrorBoundAcrossTwelveOrders) {
  // Single-value histograms: p50 must reproduce the value within the
  // documented 1/(2*kLatencySubBuckets) relative bound, from ns to ks.
  const double bound = 1.0 / (2.0 * obs::kLatencySubBuckets) + 1e-12;
  for (double v = 1e-9; v < 4000.0; v *= 1.9) {
    obs::LatencyHistogram h;
    h.record(v);
    const double p50 = h.quantile(0.5);
    EXPECT_NEAR(p50, v, v * bound) << "v=" << v;
  }
}

TEST(ObsLatencyQuantile, RanksAndClamping) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 1; i <= 100; ++i) h.record(i * 1e-3);
  EXPECT_EQ(h.count(), 100u);
  const double bound = 1.0 / (2.0 * obs::kLatencySubBuckets) + 1e-12;
  EXPECT_NEAR(h.quantile(0.5), 0.050, 0.050 * bound);
  EXPECT_NEAR(h.quantile(0.99), 0.099, 0.099 * bound);
  // q<=0 and q>=1 clamp to the extreme ranks; extremes clamp to the
  // exact observed min/max, not bucket midpoints.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.100);
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), 0.001);
  EXPECT_DOUBLE_EQ(h.quantile(7.0), 0.100);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.100);
}

TEST(ObsLatencyRegistry, RecordSnapshotRoundTrip) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  const obs::MetricId id =
      obs::metric_id("test.latency_rt", obs::MetricKind::kLatency);
  for (int i = 1; i <= 50; ++i) obs::latency_record(id, i * 1e-4);

  const auto snap = obs::metrics_snapshot();
  const obs::MetricRecord* m = find_metric(snap, "test.latency_rt");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricKind::kLatency);
  EXPECT_EQ(m->count, 50u);
  EXPECT_EQ(m->latency.count(), 50u);
  const double bound = 1.0 / (2.0 * obs::kLatencySubBuckets) + 1e-12;
  EXPECT_NEAR(m->latency.quantile(0.5), 25e-4, 25e-4 * bound);
  EXPECT_DOUBLE_EQ(m->min, 1e-4);
  EXPECT_DOUBLE_EQ(m->max, 50e-4);

  obs::metrics_reset();
  const auto after = obs::metrics_snapshot();
  const obs::MetricRecord* r = find_metric(after, "test.latency_rt");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->count, 0u);
  EXPECT_TRUE(r->latency.empty());
}

TEST(ObsLatencyRegistry, MergesAcrossThreadsAndRetiredShards) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  const obs::MetricId id =
      obs::metric_id("test.latency_mt", obs::MetricKind::kLatency);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([id, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::latency_record(id, (t + 1) * 1e-3);
      }
    });
  }
  for (std::thread& th : threads) th.join();  // shards retire here

  const auto snap = obs::metrics_snapshot();
  const obs::MetricRecord* m = find_metric(snap, "test.latency_mt");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m->latency.count(), m->count);
  EXPECT_DOUBLE_EQ(m->min, 1e-3);
  EXPECT_DOUBLE_EQ(m->max, 4e-3);
}

TEST(ObsLatencyRegistry, ConcurrentRecordAndSnapshot) {
  // Recorders hammer one latency series while a reader snapshots in a
  // loop; TSan asserts the lazy bucket-install and merge paths are
  // race-free, and the final merged count must be exact.
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  const obs::MetricId id =
      obs::metric_id("test.latency_race", obs::MetricKind::kLatency);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([id] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::latency_record(id, 1e-3 + (i % 32) * 1e-5);
      }
    });
  }
  std::uint64_t last_seen = 0;
  for (int i = 0; i < 50; ++i) {
    const auto snap = obs::metrics_snapshot();
    const obs::MetricRecord* m = find_metric(snap, "test.latency_race");
    if (m != nullptr) {
      EXPECT_GE(m->count, last_seen) << "count went backwards";
      EXPECT_EQ(m->latency.count(), m->count);
      last_seen = m->count;
    }
  }
  for (std::thread& th : recorders) th.join();
  const auto snap = obs::metrics_snapshot();
  const obs::MetricRecord* m = find_metric(snap, "test.latency_race");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace zh
