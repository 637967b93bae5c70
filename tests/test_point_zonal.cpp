#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>

#include "core/point_zonal.hpp"
#include "data/points_synth.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

struct Scenario {
  std::uint64_t seed;
  std::size_t count;
  int clusters;
  bool weighted;
  bool holes;
  // gtest names each case after the raw bytes of its parameter: the
  // padding is spelled out and zeroed so the names do not change from
  // build to build with whatever the padding bytes happened to hold.
  std::array<std::uint8_t, 2> padding{};
};
static_assert(std::has_unique_object_representations_v<Scenario>);

class PointZonalSweep : public ::testing::TestWithParam<Scenario> {};

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PointZonalSweep,
    ::testing::Values(Scenario{1, 2000, 0, false, false},
                      Scenario{2, 5000, 0, true, true},
                      Scenario{3, 5000, 8, true, false},
                      Scenario{4, 3000, 3, false, true},
                      Scenario{5, 1, 0, true, false}));

TEST_P(PointZonalSweep, GridFilteredMatchesReference) {
  const Scenario sc = GetParam();
  Device dev;
  const GeoTransform t(0.0, 10.0, 0.1, 0.1);
  const TilingScheme tiling(100, 100, 10);
  const GeoBox extent = t.extent(100, 100);

  PointParams pp;
  pp.seed = sc.seed;
  pp.count = sc.count;
  pp.clusters = sc.clusters;
  pp.weighted = sc.weighted;
  const PointSet points = generate_points(extent, pp);
  const PolygonSet zones = test::random_polygon_set(
      static_cast<std::uint32_t>(sc.seed * 19), GeoBox{0.5, 0.5, 9.5, 9.5},
      8, sc.holes);

  PointZonalCounters counters;
  const auto got =
      zonal_point_summation(dev, points, zones, tiling, t, &counters);
  const auto expect = zonal_point_summation_reference(points, zones);

  ASSERT_EQ(got.size(), zones.size());
  for (PolygonId z = 0; z < zones.size(); ++z) {
    ASSERT_EQ(got[z].count, expect[z].count) << "zone " << z;
    ASSERT_NEAR(got[z].weight_sum, expect[z].weight_sum,
                1e-9 * (expect[z].weight_sum + 1.0))
        << "zone " << z;
  }
  // The grid filter must have routed some points bucket-wise (zones are
  // big relative to tiles in this setup).
  if (sc.count >= 1000) {
    EXPECT_GT(counters.points_in_inside_tiles, 0u);
    EXPECT_GT(counters.pip_point_tests, 0u);
  }
}

TEST(PointZonal, UnweightedCountEqualsWeightSumOfOnes) {
  Device dev;
  const GeoTransform t(0.0, 4.0, 0.1, 0.1);
  const TilingScheme tiling(40, 40, 8);
  PointSet points;
  points.x = {1.0, 2.0, 3.0};
  points.y = {1.0, 2.0, 3.0};
  // weight left empty: all 1.
  PolygonSet zones;
  zones.add(Polygon({{{0.5, 0.5}, {3.5, 0.5}, {3.5, 3.5}, {0.5, 3.5}}}));
  const auto rows = zonal_point_summation(dev, points, zones, tiling, t);
  EXPECT_EQ(rows[0].count, 3u);
  EXPECT_DOUBLE_EQ(rows[0].weight_sum, 3.0);
}

TEST(PointZonal, PointsOutsideTilingAreIgnored) {
  Device dev;
  const GeoTransform t(0.0, 4.0, 0.1, 0.1);
  const TilingScheme tiling(40, 40, 8);
  PointSet points;
  points.add(2.0, 2.0);
  points.add(50.0, 50.0);   // off the grid
  points.add(-1.0, 2.0);    // off the grid
  PolygonSet zones;
  zones.add(Polygon({{{0.5, 0.5}, {3.5, 0.5}, {3.5, 3.5}, {0.5, 3.5}}}));
  const auto rows = zonal_point_summation(dev, points, zones, tiling, t);
  EXPECT_EQ(rows[0].count, 1u);
}

TEST(PointZonal, OverlappingZonesCountIndependently) {
  Device dev;
  const GeoTransform t(0.0, 4.0, 0.1, 0.1);
  const TilingScheme tiling(40, 40, 8);
  PointSet points;
  points.add(2.0, 2.0, 5.0);
  PolygonSet zones;
  zones.add(Polygon({{{0.5, 0.5}, {3.5, 0.5}, {3.5, 3.5}, {0.5, 3.5}}}));
  zones.add(Polygon({{{1.5, 1.5}, {2.5, 1.5}, {2.5, 2.5}, {1.5, 2.5}}}));
  const auto rows = zonal_point_summation(dev, points, zones, tiling, t);
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[1].count, 1u);
  EXPECT_DOUBLE_EQ(rows[1].weight_sum, 5.0);
}

TEST(PointZonal, EmptyInputs) {
  Device dev;
  const GeoTransform t(0.0, 4.0, 0.1, 0.1);
  const TilingScheme tiling(40, 40, 8);
  EXPECT_TRUE(
      zonal_point_summation(dev, PointSet{}, PolygonSet{}, tiling, t)
          .empty());
  PolygonSet zones;
  zones.add(Polygon({{{0.5, 0.5}, {1.5, 0.5}, {1.5, 1.5}}}));
  const auto rows =
      zonal_point_summation(dev, PointSet{}, zones, tiling, t);
  EXPECT_EQ(rows[0].count, 0u);
}

TEST(PointZonal, WeightSizeMismatchThrows) {
  Device dev;
  const GeoTransform t(0.0, 4.0, 0.1, 0.1);
  const TilingScheme tiling(40, 40, 8);
  PointSet points;
  points.x = {1.0, 2.0};
  points.y = {1.0, 2.0};
  points.weight = {1.0};
  PolygonSet zones;
  zones.add(Polygon({{{0.5, 0.5}, {1.5, 0.5}, {1.5, 1.5}}}));
  EXPECT_THROW(zonal_point_summation(dev, points, zones, tiling, t),
               InvalidArgument);
}

TEST(PointSynth, DeterministicAndInExtent) {
  const GeoBox extent{2.0, 3.0, 12.0, 9.0};
  PointParams pp;
  pp.seed = 5;
  pp.count = 1000;
  pp.clusters = 4;
  const PointSet a = generate_points(extent, pp);
  const PointSet b = generate_points(extent, pp);
  ASSERT_EQ(a.size(), 1000u);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.weight, b.weight);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(extent.contains(GeoPoint{a.x[i], a.y[i]}));
    ASSERT_GE(a.weight[i], 1.0);
    ASSERT_LT(a.weight[i], 100.0);
  }
}

TEST(PointSynth, ClusteredPointsAreActuallyClustered) {
  const GeoBox extent{0.0, 0.0, 10.0, 10.0};
  PointParams uniform{.seed = 6, .count = 4000, .clusters = 0};
  PointParams clustered{.seed = 6, .count = 4000, .clusters = 3,
                        .cluster_sigma = 0.02};
  const PointSet u = generate_points(extent, uniform);
  const PointSet c = generate_points(extent, clustered);

  // Occupancy of a 10x10 grid: clustered points hit far fewer boxes.
  auto occupancy = [&](const PointSet& pts) {
    std::set<int> boxes;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      boxes.insert(static_cast<int>(pts.x[i]) * 100 +
                   static_cast<int>(pts.y[i]));
    }
    return boxes.size();
  };
  EXPECT_LT(occupancy(c), occupancy(u) / 2);
}

}  // namespace
}  // namespace zh
