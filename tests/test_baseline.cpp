// Baseline cross-validation: the three reference implementations agree
// bit-for-bit on arbitrary inputs (they share cell-center semantics).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>

#include "core/baseline.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

struct Case {
  std::uint32_t seed;
  int polygons;
  bool holes;
  // gtest names each case after the raw bytes of its parameter: the
  // padding is spelled out and zeroed so the names do not change from
  // build to build with whatever the padding bytes happened to hold.
  std::array<std::uint8_t, 3> padding{};
};
static_assert(std::has_unique_object_representations_v<Case>);

class BaselineSweep : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(Workloads, BaselineSweep,
                         ::testing::Values(Case{1, 1, false},
                                           Case{2, 5, false},
                                           Case{3, 9, true},
                                           Case{4, 16, true}));

TEST_P(BaselineSweep, NaiveMbbAndScanlineAgree) {
  const Case param = GetParam();
  const DemRaster raster = test::random_raster(
      80, 70, param.seed, 99, GeoTransform(0.0, 8.0, 0.1, 0.1));
  const PolygonSet polys = test::random_polygon_set(
      param.seed * 101, GeoBox{0.5, 0.5, 6.5, 7.5}, param.polygons,
      param.holes);

  const HistogramSet naive = zonal_naive(raster, polys, 100);
  const HistogramSet mbb = zonal_mbb_filter(raster, polys, 100);
  const HistogramSet scan = zonal_scanline(raster, polys, 100);
  EXPECT_EQ(naive, mbb);
  EXPECT_EQ(naive, scan);
}

TEST(Baseline, SquarePolygonExactCount) {
  // 10x10 unit cells; square over cell centers of a 4x5 block.
  DemRaster raster(10, 10, GeoTransform(0.0, 10.0, 1.0, 1.0));
  for (CellValue& v : raster.cells()) v = 2;
  PolygonSet polys;
  polys.add(Polygon({{{1.1, 2.1}, {6.2, 2.1}, {6.2, 6.2}, {1.1, 6.2}}}));

  const HistogramSet h = zonal_naive(raster, polys, 5);
  // Centers x in {1.5..5.5} (5 cols), y in {2.5..5.5} (4 rows).
  EXPECT_EQ(h.of(0)[2], 20u);
  EXPECT_EQ(h.group_total(0), 20u);
}

TEST(Baseline, OverlappingPolygonsCountIndependently) {
  DemRaster raster(10, 10, GeoTransform(0.0, 10.0, 1.0, 1.0));
  for (CellValue& v : raster.cells()) v = 1;
  PolygonSet polys;
  polys.add(Polygon({{{0.1, 0.1}, {9.9, 0.1}, {9.9, 9.9}, {0.1, 9.9}}}));
  polys.add(Polygon({{{0.1, 0.1}, {9.9, 0.1}, {9.9, 9.9}, {0.1, 9.9}}}));
  const HistogramSet h = zonal_scanline(raster, polys, 3);
  EXPECT_EQ(h.group_total(0), 100u);
  EXPECT_EQ(h.group_total(1), 100u);  // overlap double-counts by design
}

TEST(Baseline, PolygonOutsideRasterYieldsEmptyHistogram) {
  const DemRaster raster = test::random_raster(10, 10, 5, 9);
  PolygonSet polys;
  polys.add(Polygon({{{100, 100}, {101, 100}, {101, 101}}}));
  EXPECT_EQ(zonal_mbb_filter(raster, polys, 10).group_total(0), 0u);
  EXPECT_EQ(zonal_scanline(raster, polys, 10).group_total(0), 0u);
  EXPECT_EQ(zonal_naive(raster, polys, 10).group_total(0), 0u);
}

TEST(Baseline, EmptyRaster) {
  const DemRaster raster(0, 0);
  PolygonSet polys;
  polys.add(Polygon({{{0.5, 0.5}, {1, 0.5}, {1, 1}}}));
  EXPECT_EQ(zonal_naive(raster, polys, 4).total(), 0u);
  EXPECT_EQ(zonal_scanline(raster, polys, 4).total(), 0u);
}

TEST(Baseline, NodataHandledUniformly) {
  DemRaster raster(6, 6, GeoTransform(0.0, 6.0, 1.0, 1.0));
  for (CellValue& v : raster.cells()) v = 3;
  raster.at(2, 2) = 500;
  raster.set_nodata(CellValue{500});
  PolygonSet polys;
  polys.add(Polygon({{{0.1, 0.1}, {5.9, 0.1}, {5.9, 5.9}, {0.1, 5.9}}}));
  const HistogramSet a = zonal_naive(raster, polys, 10);
  const HistogramSet b = zonal_scanline(raster, polys, 10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.group_total(0), 35u);  // 36 interior centers - 1 nodata
}

}  // namespace
}  // namespace zh
