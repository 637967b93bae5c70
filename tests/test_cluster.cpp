// Cluster substrate and multi-rank zonal runs (DESIGN.md invariant 6):
// merged multi-rank results equal the single-device result for any rank
// count, and partitions tile-align, cover, and stay disjoint.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "cluster/comm.hpp"
#include "cluster/partition.hpp"
#include "core/baseline.hpp"
#include "core/cluster_driver.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(Comm, PointToPointAndTags) {
  run_cluster(3, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::uint32_t> a = {1, 2, 3};
      const std::vector<std::uint32_t> b = {9};
      comm.send<std::uint32_t>(1, /*tag=*/5, a);
      comm.send<std::uint32_t>(1, /*tag=*/6, b);
    } else if (comm.rank() == 1) {
      // Receive out of order: tag matching must pick the right message.
      const auto b = test::recv<std::uint32_t>(comm, 0, 6);
      const auto a = test::recv<std::uint32_t>(comm, 0, 5);
      EXPECT_EQ(b, (std::vector<std::uint32_t>{9}));
      EXPECT_EQ(a, (std::vector<std::uint32_t>{1, 2, 3}));
    }
  });
}

TEST(Comm, BytesSentAccounting) {
  run_cluster(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::uint32_t> payload(100, 1);
      comm.send<std::uint32_t>(1, 0, payload);
      EXPECT_EQ(comm.bytes_sent(), 400u);
    } else {
      (void)test::recv<std::uint32_t>(comm, 0, 0);
      EXPECT_EQ(comm.bytes_sent(), 0u);
    }
  });
}

TEST(Comm, RankExceptionPropagates) {
  EXPECT_THROW(run_cluster(2, {},
                           [](Communicator& comm) {
                             if (comm.rank() == 1) {
                               throw InvalidArgument("rank failure");
                             }
                           }),
               InvalidArgument);
}

TEST(Partition, WindowsAreTileAlignedDisjointAndCovering) {
  const std::int64_t rows = 230;
  const std::int64_t cols = 170;
  const std::int64_t tile = 16;
  const auto windows = grid_partition(rows, cols, 3, 4, tile);
  ASSERT_EQ(windows.size(), 12u);

  std::int64_t covered = 0;
  std::set<std::pair<std::int64_t, std::int64_t>> origins;
  for (const CellWindow& w : windows) {
    EXPECT_EQ(w.row0 % tile, 0);
    EXPECT_EQ(w.col0 % tile, 0);
    EXPECT_GT(w.rows, 0);
    EXPECT_GT(w.cols, 0);
    covered += w.cell_count();
    EXPECT_TRUE(origins.emplace(w.row0, w.col0).second);
  }
  EXPECT_EQ(covered, rows * cols);

  // Pairwise disjoint.
  for (std::size_t i = 0; i < windows.size(); ++i) {
    for (std::size_t j = i + 1; j < windows.size(); ++j) {
      const CellWindow& a = windows[i];
      const CellWindow& b = windows[j];
      const bool row_overlap =
          a.row0 < b.row0 + b.rows && b.row0 < a.row0 + a.rows;
      const bool col_overlap =
          a.col0 < b.col0 + b.cols && b.col0 < a.col0 + a.cols;
      EXPECT_FALSE(row_overlap && col_overlap);
    }
  }
}

TEST(Partition, SinglePartitionIsWholeRaster) {
  const auto windows = grid_partition(100, 100, 1, 1, 7);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].rows, 100);
  EXPECT_EQ(windows[0].cols, 100);
}

TEST(Partition, RejectsMorePartitionsThanTiles) {
  EXPECT_THROW(grid_partition(10, 10, 3, 1, 10), InvalidArgument);
}

TEST(Partition, RoundRobinBalancesOwners) {
  std::vector<RasterPartition> parts(10);
  assign_round_robin(parts, 4);
  std::vector<int> counts(4, 0);
  for (const auto& p : parts) ++counts[p.owner];
  EXPECT_EQ(counts, (std::vector<int>{3, 3, 2, 2}));
}

class ClusterSweep : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Ranks, ClusterSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST_P(ClusterSweep, MergedResultEqualsSingleDeviceRun) {
  const std::size_t ranks = GetParam();

  // Two adjacent rasters (shared border), zones spanning both.
  const DemParams dp{.seed = 17, .max_value = 59};
  std::vector<DemRaster> rasters;
  rasters.push_back(
      generate_dem(96, 64, GeoTransform(0.0, 9.6, 0.1, 0.1), dp));
  rasters.push_back(
      generate_dem(96, 80, GeoTransform(6.4, 9.6, 0.1, 0.1), dp));
  const std::vector<std::pair<int, int>> schemas = {{2, 1}, {2, 2}};

  CountyParams cp;
  cp.seed = 4;
  cp.grid_x = 5;
  cp.grid_y = 4;
  const PolygonSet zones =
      generate_counties(GeoBox{-0.7, -0.7, 15.1, 10.3}, cp);

  ClusterRunConfig cfg;
  cfg.ranks = ranks;
  cfg.zonal = {.tile_size = 16, .bins = 60};
  const ClusterRunResult result =
      run_cluster_zonal(rasters, schemas, zones, cfg);

  // Reference: per-raster single-device zonal, summed.
  HistogramSet expect(zones.size(), 60);
  for (const DemRaster& r : rasters) {
    expect.add(zonal_mbb_filter(r, zones, 60));
  }
  EXPECT_EQ(result.merged, expect);
  EXPECT_GT(result.wall_seconds, 0.0);
  ASSERT_EQ(result.per_rank.size(), ranks);
  ASSERT_EQ(result.rank_seconds.size(), ranks);
  if (ranks > 1) {
    EXPECT_GT(result.comm_bytes, 0u);
  }
}

TEST(ClusterDriver, SchemaCountMismatchThrows) {
  std::vector<DemRaster> rasters;
  rasters.emplace_back(10, 10);
  EXPECT_THROW(run_cluster_zonal(rasters, {}, PolygonSet{}, {}),
               InvalidArgument);
}

}  // namespace
}  // namespace zh
