// Failure recovery in the supervised cluster driver (DESIGN.md invariant
// 6 extended): any single-rank crash at any pipeline step leaves the
// merged histograms bit-identical to the per-cell oracle, a slow or
// silent worker is never declared dead, delayed-message storms stay
// exact, replay with the same seed is deterministic, and a crash or
// abort that can never fire is refused.
#include <gtest/gtest.h>

#include <numeric>
#include <string_view>
#include <utility>

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
    cfg.fault_tolerance.faults.crash = {1, point, 0};

    const ClusterRunResult r =
        run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
    EXPECT_EQ(r.merged, expect);
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
  cfg.fault_tolerance.faults.crash = {1, CrashPoint::kPartitionStart, 1};

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, expect);
  EXPECT_EQ(r.rank_outcomes[1].state, RankState::kCrashed);
  EXPECT_EQ(r.rank_outcomes[1].partitions_completed, 1u);
  EXPECT_EQ(r.rank_outcomes[1].partitions_reassigned, 1u);
  EXPECT_EQ(r.rank_outcomes[0].partitions_completed, 3u);
}

TEST(ClusterRecovery, MessageFaultStormStaysExact) {
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ClusterRunConfig cfg = sc.config(4);
    cfg.fault_tolerance.faults.seed = seed;
    cfg.fault_tolerance.faults.delay_prob = 0.5;
    cfg.fault_tolerance.faults.delay_ms = 3;

    const ClusterRunResult r =
        run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
    EXPECT_EQ(r.merged, expect);
    EXPECT_EQ(total_completed(r), 4u);
  }
}

TEST(ClusterRecovery, CrashCombinedWithMessageFaultsStaysExact) {
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  // Rank 2 dies right after sending its result. Undelayed, the result
  // is queued when the master sees the death, so the dead rank's copy is
  // the one accepted. Held back 30 ms, the master may see the death
  // first, reassign the partition and then receive the dead rank's copy
  // too. Either way the first copy wins.
  for (const char* spec :
       {"crash=2@result_sent",
        "seed=9,delay=1.0,delay_ms=30,crash=2@result_sent"}) {
    SCOPED_TRACE(spec);
    ClusterRunConfig cfg = sc.config(4);
    cfg.fault_tolerance.faults = FaultPlan::parse(spec);

    const ClusterRunResult r =
        run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
    EXPECT_EQ(r.merged, expect);
    EXPECT_EQ(total_completed(r), 4u);  // every partition counted once
    EXPECT_EQ(r.rank_outcomes[2].state, RankState::kCrashed);
    // The run's work is the accepted copies' work, once per partition,
    // whichever rank's copy won.
    EXPECT_EQ(r.work.cells_total, sc.rasters[0].cell_count());
    EXPECT_EQ(r.work.cells_in_polygons, r.merged.total());
  }
}

TEST(ClusterRecovery, CrashThatCanNeverFireIsRejected) {
  // Only the workers visit crash checkpoints: not the master (rank 0),
  // and no rank past the run's last. At journal_record only an abort
  // fires. Each such crash would pass silently, so the run refuses it.
  // So is an abort at a rank checkpoint of a one-rank run (the master
  // visits none), or at journal_record of a run with no journal.
  const Scenario sc;
  for (const CrashSpec crash :
       {CrashSpec{0, CrashPoint::kPartitionStart, 0},
        CrashSpec{3, CrashPoint::kPartitionStart, 0},
        CrashSpec{7, CrashPoint::kPartitionStart, 0},
        CrashSpec{1, CrashPoint::kJournalRecord, 0}}) {
    SCOPED_TRACE(detail::format_parts("crash=", crash.rank, "@",
                                      to_string(crash.point)));
    ClusterRunConfig cfg = sc.config(3);
    cfg.fault_tolerance.faults.crash = crash;
    EXPECT_THROW(
        (void)run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg),
        InvalidArgument);
  }
  for (const auto& [ranks, point] :
       {std::pair{std::size_t{1}, CrashPoint::kStartup},
        std::pair{std::size_t{1}, CrashPoint::kBeforeFinish},
        std::pair{std::size_t{3}, CrashPoint::kJournalRecord}}) {
    SCOPED_TRACE(detail::format_parts("abort=", to_string(point), " on ",
                                      ranks, " ranks"));
    ClusterRunConfig cfg = sc.config(ranks);
    cfg.fault_tolerance.faults.abort = {point, 0};
    EXPECT_THROW(
        (void)run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg),
        InvalidArgument);
  }
  // "none" names no checkpoint, so neither spec can name it.
  EXPECT_THROW((void)FaultPlan::parse("crash=1@none"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("abort=none"), InvalidArgument);

  // The last worker is still a rank a crash can hit.
  ClusterRunConfig cfg = sc.config(3);
  cfg.fault_tolerance.faults.crash = {2, CrashPoint::kPartitionStart, 0};
  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, sc.reference());
  EXPECT_EQ(r.rank_outcomes[2].state, RankState::kCrashed);
}

TEST(ClusterRecovery, ReplayWithSameSeedIsDeterministic) {
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(3);
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
}

TEST(ClusterRecovery, FaultTolerantModeWithoutFaultsMatchesStatic) {
  // Without faults the supervised run keeps the paper's static
  // (round-robin) assignment: every rank completes what it owns and
  // nothing is reassigned.
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(3);

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, sc.reference());
  EXPECT_EQ(total_completed(r), 4u);
  for (const RankOutcome& o : r.rank_outcomes) {
    EXPECT_EQ(o.state, RankState::kCompleted);
    EXPECT_EQ(o.partitions_reassigned, 0u);
  }
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
  // A rank that dies before it writes its metrics row must show up as an
  // all-defaults row with reported == 0 -- never a hang, never a stale
  // row -- while the run itself still recovers to the exact answer.
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  ClusterRunConfig cfg = sc.config(3);
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

TEST(ClusterRecovery, SilentWorkerIsNotDeclaredDead) {
  // Every message is held back 2.1 s, so the master hears nothing from
  // rank 1 for seconds at a time. A rank is dead only when its thread
  // exits: rank 1 keeps its partitions and nothing is recomputed.
  const Scenario sc;
  ClusterRunConfig cfg = sc.config(2);
  cfg.fault_tolerance.faults =
      FaultPlan::parse("seed=3,delay=1.0,delay_ms=2100");

  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg);
  EXPECT_EQ(r.merged, sc.reference());
  for (const RankOutcome& o : r.rank_outcomes) {
    EXPECT_EQ(o.state, RankState::kCompleted);
    EXPECT_EQ(o.partitions_reassigned, 0u);
  }
  EXPECT_EQ(metrics_partition_total(r), 4u);  // no partition computed twice
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
