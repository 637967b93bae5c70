// Cluster substrate and multi-rank zonal runs (DESIGN.md invariant 6):
// merged multi-rank results equal the single-device result for any rank
// count, partitions tile-align, cover, and stay disjoint, and a result
// message carries only the zones its partition pairs, checked exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>
#include <string>

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

/// A partition result of two held zones of a 9-zone, 5-bin layer.
ZonalResult sample_result() {
  ZonalResult r;
  r.per_polygon = HistogramSet(9, 5, {2, 6});
  r.per_polygon.row(2)[1] = 7;
  r.per_polygon.row(6)[4] = 11;
  r.work.cells_total = 123;
  r.work.cells_in_polygons = 18;
  r.work.pip_cell_tests = 5;
  return r;
}

TEST(ClusterCodec, ResultRoundTripsHeldZonesRowsAndCounters) {
  const ZonalResult r = sample_result();
  const std::vector<std::byte> bytes = encode_partition_result(3, r);
  // Index and held count, two ids, two 5-bin rows, the counters.
  EXPECT_EQ(bytes.size(), 2 * sizeof(std::uint32_t) +
                              2 * (sizeof(PolygonId) + 5 * sizeof(BinCount)) +
                              sizeof(WorkCounters));
  const PartitionResult back = decode_partition_result(bytes, 2, 4, 9, 5);
  EXPECT_EQ(back.part_index, 3u);
  EXPECT_EQ(std::vector<PolygonId>(back.per_polygon.held().begin(),
                                   back.per_polygon.held().end()),
            (std::vector<PolygonId>{2, 6}));
  EXPECT_EQ(back.per_polygon, r.per_polygon);
  EXPECT_EQ(std::memcmp(&back.work, &r.work, sizeof(WorkCounters)), 0);

  // A partition that pairs no zone sends no row.
  ZonalResult none;
  none.per_polygon = HistogramSet(9, 5, {});
  const PartitionResult empty = decode_partition_result(
      encode_partition_result(0, none), 1, 4, 9, 5);
  EXPECT_TRUE(empty.per_polygon.held().empty());
  EXPECT_EQ(empty.per_polygon, HistogramSet(9, 5));
}

TEST(ClusterCodec, RefusesMalformedResultsNamingTheRank) {
  const std::vector<std::byte> good =
      encode_partition_result(3, sample_result());
  // Whether decoding `payload` from rank 2 throws an IoError naming it.
  const auto refused = [](const std::vector<std::byte>& payload) {
    try {
      (void)decode_partition_result(payload, 2, 4, 9, 5);
    } catch (const IoError& e) {
      return std::string(e.what()).find("from rank 2") != std::string::npos;
    }
    return false;
  };
  const auto with_id = [&](std::size_t k, PolygonId id) {
    std::vector<std::byte> bad = good;
    std::memcpy(bad.data() + 2 * sizeof(std::uint32_t) +
                    k * sizeof(PolygonId),
                &id, sizeof(id));
    return bad;
  };
  ASSERT_FALSE(refused(good));

  // A length that disagrees with the held count: trailing bytes, a
  // truncated row, a count the rows do not fill, a short header.
  for (std::size_t extra = 1; extra <= 3; ++extra) {
    std::vector<std::byte> bad = good;
    bad.resize(good.size() + extra);
    EXPECT_TRUE(refused(bad)) << extra << " trailing bytes";
  }
  EXPECT_TRUE(refused({good.begin(), good.end() - 1}));
  std::vector<std::byte> three = good;
  const std::uint32_t count = 3;
  std::memcpy(three.data() + sizeof(std::uint32_t), &count, sizeof(count));
  EXPECT_TRUE(refused(three));
  EXPECT_TRUE(refused({good.begin(), good.begin() + 6}));

  // Zone ids that do not increase strictly, or reach the zone count.
  EXPECT_TRUE(refused(with_id(0, 6)));  // 6, 6
  EXPECT_TRUE(refused(with_id(0, 7)));  // 7, 6
  EXPECT_TRUE(refused(with_id(1, 9)));  // 2, 9 of 9 zones
  EXPECT_FALSE(refused(with_id(1, 8)));

  // A partition index past the run's partitions.
  std::vector<std::byte> index = good;
  const std::uint32_t four = 4;
  std::memcpy(index.data(), &four, sizeof(four));
  EXPECT_TRUE(refused(index));
}

// A partition's result message holds only the zones its plan pairs: the
// bytes a fault-free 3-rank run sends are exactly the workers' result
// messages (their requests for work and the master's releases are
// empty), sized from each partition's own plan.
TEST(ClusterDriver, ResultMessagesCarryOnlyPairedZones) {
  const DemRaster raster = generate_dem(
      64, 96, GeoTransform(0.0, 6.4, 0.1, 0.1), {.seed = 3, .max_value = 49});
  PolygonSet zones =
      test::random_polygon_set(5, GeoBox{0.3, 0.3, 9.3, 6.1}, 6, true);
  const PolygonSet far =
      test::random_polygon_set(6, GeoBox{20.0, 0.3, 40.0, 6.1}, 10, false);
  for (PolygonId z = 0; z < far.size(); ++z) zones.add(far[z]);
  constexpr BinIndex kBins = 50;
  constexpr std::int64_t kTile = 8;
  ClusterRunConfig cfg;
  cfg.ranks = 3;
  cfg.zonal = {.tile_size = kTile, .bins = kBins};
  const ClusterRunResult r = run_cluster_zonal({raster}, {{2, 3}}, zones, cfg);
  EXPECT_EQ(r.merged, zonal_scanline(raster, zones, kBins));

  const std::vector<CellWindow> windows =
      grid_partition(raster.rows(), raster.cols(), 2, 3, kTile);
  std::uint64_t expect = 0;
  std::uint64_t dense = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i % cfg.ranks == 0) continue;  // the master's own partitions
    const DemRaster part = raster.copy_window(windows[i]);
    const ZonalPlan plan = make_plan(
        zones, TilingScheme(part.rows(), part.cols(), kTile),
        part.transform());
    const auto message = [&](std::size_t held) {
      return 2 * sizeof(std::uint32_t) +
             held * (sizeof(PolygonId) + kBins * sizeof(BinCount)) +
             sizeof(WorkCounters);
    };
    expect += message(plan.paired_zones.size());
    dense += message(zones.size());
  }
  EXPECT_EQ(r.comm_bytes, expect);
  EXPECT_LT(expect, dense / 2);
}

TEST(ClusterDriver, SchemaCountMismatchThrows) {
  std::vector<DemRaster> rasters;
  rasters.emplace_back(10, 10);
  EXPECT_THROW(run_cluster_zonal(rasters, {}, PolygonSet{}, {}),
               InvalidArgument);
}

}  // namespace
}  // namespace zh
