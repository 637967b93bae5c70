#include <gtest/gtest.h>

#include "core/step1_tile_hist.hpp"
#include "core/step2_pairing.hpp"
#include "core/step3_aggregate.hpp"
#include "core/step4_refine.hpp"
#include "geom/pip.hpp"
#include "geom/soa.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(Step3, AggregatesOwnedTilesOnly) {
  Device dev;
  // Three tiles with known histograms.
  HistogramSet tiles(3, 4);
  tiles.row(0)[1] = 10;
  tiles.row(1)[1] = 5;
  tiles.row(1)[3] = 2;
  tiles.row(2)[0] = 9;

  // Polygon 0 owns tiles {0, 1}; polygon 2 owns tile {2}.
  PolygonTileGroups groups;
  groups.pid_v = {0, 2};
  groups.num_v = {2, 1};
  groups.pos_v = {0, 2};
  groups.tid_v = {0, 1, 2};

  HistogramSet polys(3, 4);
  polys.row(0)[1] = 100;  // pre-existing counts must accumulate
  aggregate_inside_tiles(dev, groups, tiles, polys);

  EXPECT_EQ(polys.of(0)[1], 115u);
  EXPECT_EQ(polys.of(0)[3], 2u);
  EXPECT_EQ(polys.of(1).size(), 4u);
  EXPECT_EQ(polys.group_total(1), 0u);  // untouched polygon
  EXPECT_EQ(polys.of(2)[0], 9u);
}

TEST(Step3, EmptyGroupsIsNoop) {
  Device dev;
  HistogramSet tiles(1, 4);
  HistogramSet polys(1, 4);
  aggregate_inside_tiles(dev, PolygonTileGroups{}, tiles, polys);
  EXPECT_EQ(polys.total(), 0u);
}

TEST(Step3, BinMismatchThrows) {
  Device dev;
  HistogramSet tiles(1, 4);
  HistogramSet polys(1, 5);
  PolygonTileGroups g;
  g.pid_v = {0};
  g.num_v = {1};
  g.pos_v = {0};
  g.tid_v = {0};
  EXPECT_THROW(aggregate_inside_tiles(dev, g, tiles, polys),
               InvalidArgument);
}

TEST(Step4, CountsExactlyTheInteriorCellsOfBoundaryTiles) {
  Device dev;
  // 20x20 raster of constant value 3 over [0,2)x[0,2); tiles of 10 cells.
  DemRaster raster(20, 20, GeoTransform(0.0, 2.0, 0.1, 0.1));
  for (CellValue& v : raster.cells()) v = 3;
  const TilingScheme tiling(20, 20, 10);

  // Square polygon covering x in [0.05, 1.05), y in [0.95, 1.95): cuts
  // through all four tiles.
  PolygonSet set;
  set.add(Polygon({{{0.05, 0.95}, {1.05, 0.95}, {1.05, 1.95},
                    {0.05, 1.95}}}));
  const PolygonSoA soa = PolygonSoA::build(set);

  PolygonTileGroups intersect;
  intersect.pid_v = {0};
  intersect.num_v = {4};
  intersect.pos_v = {0};
  intersect.tid_v = {0, 1, 2, 3};

  HistogramSet polys(1, 10);
  const RefineCounters rc =
      refine_boundary_tiles(dev, intersect, soa, raster, tiling, polys,
                            RefineGranularity::kPolygonGroup,
                            RefineStrategy::kBrute);

  // Ground truth: per-cell PIP with the same reference implementation.
  BinCount expect = 0;
  for (std::int64_t r = 0; r < 20; ++r) {
    for (std::int64_t c = 0; c < 20; ++c) {
      expect += point_in_polygon(set[0],
                                 raster.transform().cell_center(r, c));
    }
  }
  EXPECT_EQ(expect, 100u);  // a 10x10 block of centers under the
                            // half-open boundary rule
  EXPECT_EQ(polys.of(0)[3], expect);
  EXPECT_EQ(rc.cells_counted, expect);
  EXPECT_EQ(rc.cell_tests, 400u);  // 4 tiles x 100 cells
  // Exactly the 4 real edges are charged per cell: the closing vertex
  // and the (0,0) ring sentinel the PiP loop skips are not edge tests.
  EXPECT_EQ(rc.edge_tests, 1600u);
}

TEST(Step4, MultiRingPolygonExcludesHoleCells) {
  Device dev;
  DemRaster raster(10, 10, GeoTransform(0.0, 1.0, 0.1, 0.1));
  for (CellValue& v : raster.cells()) v = 1;
  const TilingScheme tiling(10, 10, 10);

  PolygonSet set;
  Polygon p({{{0.05, 0.05}, {0.95, 0.05}, {0.95, 0.95}, {0.05, 0.95}}});
  p.add_ring({{0.35, 0.35}, {0.65, 0.35}, {0.65, 0.65}, {0.35, 0.65}});
  set.add(std::move(p));
  const PolygonSoA soa = PolygonSoA::build(set);

  PolygonTileGroups intersect;
  intersect.pid_v = {0};
  intersect.num_v = {1};
  intersect.pos_v = {0};
  intersect.tid_v = {0};

  HistogramSet polys(1, 4);
  refine_boundary_tiles(dev, intersect, soa, raster, tiling, polys,
                        RefineGranularity::kPolygonGroup,
                        RefineStrategy::kBrute);

  BinCount expect = 0;
  BinCount outer_only = 0;
  const Polygon outer({{{0.05, 0.05}, {0.95, 0.05}, {0.95, 0.95},
                        {0.05, 0.95}}});
  for (std::int64_t r = 0; r < 10; ++r) {
    for (std::int64_t c = 0; c < 10; ++c) {
      const GeoPoint pt = raster.transform().cell_center(r, c);
      expect += point_in_polygon(set[0], pt);
      outer_only += point_in_polygon(outer, pt);
    }
  }
  EXPECT_EQ(polys.of(0)[1], expect);
  EXPECT_LT(expect, outer_only);  // the hole really removed cells
}

TEST(Step4, NodataCellsInsidePolygonAreNotBinned) {
  Device dev;
  DemRaster raster(4, 4, GeoTransform(0.0, 4.0, 1.0, 1.0));
  for (CellValue& v : raster.cells()) v = 2;
  raster.at(1, 1) = 999;
  raster.set_nodata(CellValue{999});
  const TilingScheme tiling(4, 4, 4);

  PolygonSet set;
  set.add(Polygon({{{0.1, 0.1}, {3.9, 0.1}, {3.9, 3.9}, {0.1, 3.9}}}));
  const PolygonSoA soa = PolygonSoA::build(set);

  PolygonTileGroups intersect;
  intersect.pid_v = {0};
  intersect.num_v = {1};
  intersect.pos_v = {0};
  intersect.tid_v = {0};

  HistogramSet polys(1, 10);
  const RefineCounters rc =
      refine_boundary_tiles(dev, intersect, soa, raster, tiling, polys,
                            RefineGranularity::kPolygonGroup,
                            RefineStrategy::kBrute);
  // All 16 cell centers are interior; the nodata one is not binned.
  EXPECT_EQ(polys.group_total(0), 15u);
  EXPECT_EQ(rc.cells_counted, 15u);
}

TEST(Step4, EmptyGroupsIsNoop) {
  Device dev;
  const DemRaster raster(4, 4);
  const TilingScheme tiling(4, 4, 4);
  const PolygonSoA soa = PolygonSoA::build(PolygonSet{});
  HistogramSet polys(1, 4);
  const RefineCounters rc = refine_boundary_tiles(
      dev, PolygonTileGroups{}, soa, raster, tiling, polys,
      RefineGranularity::kPolygonGroup, RefineStrategy::kAuto);
  EXPECT_EQ(rc.cell_tests, 0u);
  EXPECT_EQ(polys.total(), 0u);
}

}  // namespace
}  // namespace zh
