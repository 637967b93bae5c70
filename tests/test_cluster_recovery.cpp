// Straggler/failure recovery in the supervised cluster driver (DESIGN.md
// invariant 6 extended): any single-rank crash at any pipeline step
// leaves the merged histograms bit-identical to the per-cell oracle,
// message-fault storms stay exact, replay with the same seed is
// deterministic, and the degraded path reports its coverage gap.
#include <gtest/gtest.h>

#include <numeric>
#include <string_view>

#include "cluster/fault.hpp"
#include "core/baseline.hpp"
#include "core/cluster_driver.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"
#include "obs/trace.hpp"

namespace zh {
namespace {

/// Shared scenario: one 96x96 raster split 2x2 (4 partitions, round-robin
/// owners), star-county zones spanning partition borders.
struct Scenario {
  std::vector<DemRaster> rasters;
  std::vector<std::pair<int, int>> schemas = {{2, 2}};
  PolygonSet zones;

  Scenario() {
    const DemParams dp{.seed = 17, .max_value = 59};
    rasters.push_back(
        generate_dem(96, 96, GeoTransform(0.0, 9.6, 0.1, 0.1), dp));
    CountyParams cp;
    cp.seed = 4;
    cp.grid_x = 4;
    cp.grid_y = 4;
    zones = generate_counties(GeoBox{-0.5, -0.5, 10.1, 10.1}, cp);
  }

  [[nodiscard]] ClusterRunConfig config(std::size_t ranks) const {
    ClusterRunConfig cfg;
    cfg.ranks = ranks;
    cfg.zonal = {.tile_size = 16, .bins = 60};
    return cfg;
  }

  /// The per-cell oracle summed over the rasters: the exactness
  /// reference.
  [[nodiscard]] HistogramSet reference() const {
    HistogramSet expect(zones.size(), 60);
    for (const DemRaster& r : rasters) {
      expect.add(zonal_scanline(r, zones, 60));
    }
    return expect;
  }
};

std::uint32_t total_completed(const ClusterRunResult& r) {
  std::uint32_t sum = 0;
  for (const RankOutcome& o : r.rank_outcomes) {
    sum += o.partitions_completed;
  }
  return sum;
}

TEST(ClusterRecovery, CrashAtEveryCheckpointKeepsResultExact) {
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  for (const CrashPoint point :
       {CrashPoint::kStartup, CrashPoint::kPartitionStart,
        CrashPoint::kPartitionDone, CrashPoint::kResultSent,
        CrashPoint::kBeforeFinish}) {
    SCOPED_TRACE(std::string("crash at ") + std::string(to_string(point)));
    ClusterRunConfig cfg = sc.config(3);
    cfg.fault_tolerance.worker_timeout_ms = 10000;
    cfg.fault_tolerance.faults.crash = {1, point, 0};

    const ClusterRunResult r =
        run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
    EXPECT_EQ(r.merged, expect);
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(r.incomplete_partitions.empty());
    EXPECT_EQ(total_completed(r), 4u);  // every partition counted once
    // The crashed rank records its own fate, so the outcome table says
    // kCrashed even when the master finishes before noticing the death
    // (possible at kResultSent/kBeforeFinish, where the rank's work is
    // already merged when the crash fires).
    EXPECT_EQ(r.rank_outcomes[1].state, RankState::kCrashed);
    if (point == CrashPoint::kStartup ||
        point == CrashPoint::kPartitionStart ||
        point == CrashPoint::kPartitionDone) {
      // Rank 1 never delivered its partition: it must be reassigned.
      EXPECT_EQ(r.rank_outcomes[1].partitions_completed, 0u);
      EXPECT_EQ(r.rank_outcomes[1].partitions_reassigned, 1u);
    }
  }
}

TEST(ClusterRecovery, CrashAtSecondOccurrenceAndMasterTakeover) {
  // Two ranks: the only worker owns partitions {1, 3} and dies entering
  // the second one, so the master must take the leftover itself.
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  ClusterRunConfig cfg = sc.config(2);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  cfg.fault_tolerance.faults.crash = {1, CrashPoint::kPartitionStart, 1};

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, expect);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.rank_outcomes[1].state, RankState::kCrashed);
  EXPECT_EQ(r.rank_outcomes[1].partitions_completed, 1u);
  EXPECT_EQ(r.rank_outcomes[1].partitions_reassigned, 1u);
  EXPECT_EQ(r.rank_outcomes[0].partitions_completed, 3u);
}

TEST(ClusterRecovery, DegradedRunReportsCoverageGap) {
  // Master takeover disabled and the only worker dead on arrival: the
  // run must complete (not hang), flag itself degraded, and list the
  // partitions whose contribution is missing.
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  ClusterRunConfig cfg = sc.config(2);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  cfg.fault_tolerance.master_takeover = false;
  cfg.fault_tolerance.faults.crash = {1, CrashPoint::kStartup, 0};

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.incomplete_partitions,
            (std::vector<std::uint32_t>{1, 3}));  // round-robin owner 1
  EXPECT_NE(r.merged, expect);
  EXPECT_EQ(r.rank_outcomes[1].state, RankState::kCrashed);
}

TEST(ClusterRecovery, MessageFaultStormStaysExact) {
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ClusterRunConfig cfg = sc.config(4);
    cfg.fault_tolerance.worker_timeout_ms = 10000;
    cfg.fault_tolerance.faults.seed = seed;
    cfg.fault_tolerance.faults.drop_prob = 0.2;
    cfg.fault_tolerance.faults.duplicate_prob = 0.3;
    cfg.fault_tolerance.faults.reorder_prob = 0.2;
    cfg.fault_tolerance.faults.delay_prob = 0.2;
    cfg.fault_tolerance.faults.delay_ms = 3;

    const ClusterRunResult r =
        run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
    EXPECT_EQ(r.merged, expect);  // duplicates deduped, drops recovered
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(total_completed(r), 4u);
  }
}

TEST(ClusterRecovery, CrashCombinedWithMessageFaultsStaysExact) {
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  ClusterRunConfig cfg = sc.config(4);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  cfg.fault_tolerance.faults =
      FaultPlan::parse("seed=9,drop=0.15,dup=0.1,crash=2@partition_done");

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, expect);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.rank_outcomes[2].state, RankState::kCrashed);
}

TEST(ClusterRecovery, ReplayWithSameSeedIsDeterministic) {
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(3);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  cfg.fault_tolerance.faults.crash = {1, CrashPoint::kPartitionDone, 0};

  const ClusterRunResult a =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  const ClusterRunResult b =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(a.merged, b.merged);
  ASSERT_EQ(a.rank_outcomes.size(), b.rank_outcomes.size());
  for (std::size_t r = 0; r < a.rank_outcomes.size(); ++r) {
    EXPECT_EQ(a.rank_outcomes[r], b.rank_outcomes[r]) << "rank " << r;
  }
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.incomplete_partitions, b.incomplete_partitions);
}

TEST(ClusterRecovery, FaultTolerantModeWithoutFaultsMatchesStatic) {
  // Without faults the supervised run keeps the paper's static
  // (round-robin) assignment: every rank completes what it owns and
  // nothing is reassigned.
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(3);
  cfg.fault_tolerance.worker_timeout_ms = 10000;

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, sc.reference());
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(total_completed(r), 4u);
  for (const RankOutcome& o : r.rank_outcomes) {
    EXPECT_EQ(o.state, RankState::kCompleted);
    EXPECT_EQ(o.partitions_reassigned, 0u);
  }
}

TEST(ClusterRecovery, AggressiveTimeoutStillExact) {
  // A 1 ms heartbeat window declares healthy workers dead left and
  // right. Recovery must stay exact regardless: late results from
  // "stragglers" are deduplicated against recomputed partitions.
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  ClusterRunConfig cfg = sc.config(3);
  cfg.fault_tolerance.worker_timeout_ms = 1;

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, expect);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(total_completed(r), 4u);
}

TEST(ClusterRecovery, FaultFreeRunFillsOutcomeTable) {
  const Scenario sc;
  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, sc.config(2));
  ASSERT_EQ(r.rank_outcomes.size(), 2u);
  EXPECT_EQ(total_completed(r), 4u);
  for (const RankOutcome& o : r.rank_outcomes) {
    EXPECT_EQ(o.state, RankState::kCompleted);
  }
}

std::uint64_t metrics_partition_total(const ClusterRunResult& r) {
  std::uint64_t sum = 0;
  for (const RankMetricsRow& row : r.rank_metrics) {
    sum += row.partitions_processed;
  }
  return sum;
}

TEST(ClusterRecovery, FaultFreeRunGathersRankMetrics) {
  const Scenario sc;
  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, sc.config(2));
  ASSERT_EQ(r.rank_metrics.size(), 2u);
  EXPECT_EQ(metrics_partition_total(r), 4u);
  for (const RankMetricsRow& row : r.rank_metrics) {
    EXPECT_EQ(row.reported, 1u);
    EXPECT_GT(row.cells_total, 0u);
  }
  // The worker streamed its partition results to the root, so its byte
  // counter is nonzero.
  EXPECT_GT(r.rank_metrics[1].comm_bytes_sent, 0u);
  // Flattening helpers agree with the column schema.
  const std::vector<std::string> cols = rank_metrics_columns();
  EXPECT_EQ(rank_metrics_values(r.rank_metrics[0]).size(), cols.size());
}

TEST(ClusterRecovery, CrashedRankLeavesMetricsRowUnreported) {
  // A rank that dies before the final metrics send must show up as an
  // all-defaults row with reported == 0 -- never a hang, never a stale
  // row -- while the run itself still recovers to the exact answer.
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  ClusterRunConfig cfg = sc.config(3);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  cfg.fault_tolerance.faults.crash = {1, CrashPoint::kBeforeFinish, 0};

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, expect);
  ASSERT_EQ(r.rank_metrics.size(), 3u);
  EXPECT_EQ(r.rank_metrics[1].reported, 0u);
  EXPECT_EQ(r.rank_metrics[1], RankMetricsRow{});
  EXPECT_EQ(r.rank_metrics[0].reported, 1u);
  EXPECT_EQ(r.rank_metrics[2].reported, 1u);
  // The dead rank's work reached the master (it crashed after sending
  // results), so the surviving rows still cover all four partitions.
  EXPECT_EQ(metrics_partition_total(r) +
                r.rank_outcomes[1].partitions_completed,
            4u);
}

TEST(ClusterRecovery, MetricsRowsSurviveDropAndDuplicateStorm) {
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  ClusterRunConfig cfg = sc.config(3);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  cfg.fault_tolerance.faults.seed = 11;
  cfg.fault_tolerance.faults.drop_prob = 0.2;
  cfg.fault_tolerance.faults.duplicate_prob = 0.2;

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, expect);
  ASSERT_EQ(r.rank_metrics.size(), 3u);
  std::uint64_t results = 0;
  for (const RankMetricsRow& row : r.rank_metrics) {
    EXPECT_EQ(row.reported, 1u);  // dropped rows are re-requested
    results += row.results_sent;
  }
  EXPECT_EQ(metrics_partition_total(r), 4u);
  EXPECT_GE(results, metrics_partition_total(r) -
                         r.rank_metrics[0].partitions_processed);
}

// The cost pass (core/load_balance) runs only where its result is read:
// never in a fault-free round-robin run, once for a cost-balanced
// assignment, and once when a dead rank's partitions need their LPT
// order.
TEST(ClusterRecovery, CostPassRunsOnlyWhenItsResultIsRead) {
#if !defined(ZH_ENABLE_OBS)
  GTEST_SKIP() << "counts trace spans; the trace layer is compiled out";
#else
  const Scenario sc;
  const auto cost_passes = [&](const ClusterRunConfig& cfg) {
    obs::trace_clear();
    obs::set_trace_enabled(true);
    (void)run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
    obs::set_trace_enabled(false);
    std::size_t n = 0;
    for (const obs::TraceEvent& e : obs::trace_snapshot()) {
      if (std::string_view(e.name) == "cluster.partition_costs") ++n;
    }
    obs::trace_clear();
    return n;
  };

  ClusterRunConfig cfg = sc.config(3);
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  EXPECT_EQ(cost_passes(cfg), 0u);

  ClusterRunConfig balanced = cfg;
  balanced.assignment = PartitionAssignment::kCostBalanced;
  EXPECT_EQ(cost_passes(balanced), 1u);

  ClusterRunConfig crash = cfg;
  crash.fault_tolerance.faults.crash = {1, CrashPoint::kStartup, 0};
  EXPECT_EQ(cost_passes(crash), 1u);
#endif
}

}  // namespace
}  // namespace zh
