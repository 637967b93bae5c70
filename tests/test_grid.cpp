#include <gtest/gtest.h>

#include <set>

#include "grid/geotransform.hpp"
#include "grid/raster.hpp"
#include "grid/tiling.hpp"

namespace zh {
namespace {

// SRTM-like transform: 1/3600-degree cells, origin at (-125, 50).
GeoTransform srtm_like() {
  return GeoTransform(-125.0, 50.0, 1.0 / 3600.0, 1.0 / 3600.0);
}

TEST(GeoTransform, CellCenterAndCornerGeometry) {
  const GeoTransform t(10.0, 20.0, 0.5, 0.25);
  const GeoPoint corner = t.cell_corner(0, 0);
  EXPECT_DOUBLE_EQ(corner.x, 10.0);
  EXPECT_DOUBLE_EQ(corner.y, 20.0);
  const GeoPoint center = t.cell_center(0, 0);
  EXPECT_DOUBLE_EQ(center.x, 10.25);
  EXPECT_DOUBLE_EQ(center.y, 19.875);
  // Row increases southwards (north-up raster).
  EXPECT_LT(t.cell_center(1, 0).y, t.cell_center(0, 0).y);
  EXPECT_GT(t.cell_center(0, 1).x, t.cell_center(0, 0).x);
}

TEST(GeoTransform, IndexLookupInvertsCellCenter) {
  const GeoTransform t = srtm_like();
  for (std::int64_t r : {0, 1, 17, 359, 3599}) {
    for (std::int64_t c : {0, 2, 100, 3599}) {
      const GeoPoint p = t.cell_center(r, c);
      EXPECT_EQ(t.y_to_row(p.y), r);
      EXPECT_EQ(t.x_to_col(p.x), c);
    }
  }
}

TEST(GeoTransform, IndexLookupSaturatesFarCoordinates) {
  // A cast of floor(1e301) to int64_t is undefined; the lookup saturates
  // first, so far coordinates land on the correct side of any raster.
  const GeoTransform t(0.0, 10.0, 0.1, 0.1);
  EXPECT_EQ(t.x_to_col(1e300), GeoTransform::kIndexLimit);
  EXPECT_EQ(t.x_to_col(-1e300), -GeoTransform::kIndexLimit);
  EXPECT_EQ(t.y_to_row(-1e300), GeoTransform::kIndexLimit);
  EXPECT_EQ(t.y_to_row(1e300), -GeoTransform::kIndexLimit);
  EXPECT_EQ(t.x_to_col(5.05), 50);

  // A box reaching from inside the raster to x = 1e300 covers the
  // raster's east columns.
  const TilingScheme tiling(100, 100, 10);
  const TileRange r =
      tiling.tile_range_covering({1.05, 0.55, 1e300, 9.45}, t);
  EXPECT_EQ(r.tx0, 1);
  EXPECT_EQ(r.tx1, 9);
  EXPECT_EQ(r.ty0, 0);
  EXPECT_EQ(r.ty1, 9);
}

TEST(GeoTransform, ExtentCoversAllCells) {
  const GeoTransform t(0.0, 10.0, 1.0, 1.0);
  const GeoBox e = t.extent(10, 20);
  EXPECT_DOUBLE_EQ(e.min_x, 0.0);
  EXPECT_DOUBLE_EQ(e.max_x, 20.0);
  EXPECT_DOUBLE_EQ(e.min_y, 0.0);
  EXPECT_DOUBLE_EQ(e.max_y, 10.0);
}

TEST(GeoTransform, ForWindowShiftsOrigin) {
  const GeoTransform t(0.0, 10.0, 0.5, 0.5);
  const GeoTransform w = t.for_window(2, 4);
  EXPECT_DOUBLE_EQ(w.origin_x(), 2.0);
  EXPECT_DOUBLE_EQ(w.origin_y(), 9.0);
  // A cell in the window maps to the same geography as in the parent.
  const GeoPoint a = t.cell_center(2 + 3, 4 + 5);
  const GeoPoint b = w.cell_center(3, 5);
  EXPECT_DOUBLE_EQ(a.x, b.x);
  EXPECT_DOUBLE_EQ(a.y, b.y);
}

TEST(GeoTransform, RejectsNonPositiveCellSize) {
  EXPECT_THROW(GeoTransform(0, 0, 0.0, 1.0), InvalidArgument);
  EXPECT_THROW(GeoTransform(0, 0, 1.0, -1.0), InvalidArgument);
}

TEST(GeoBox, ContainsAndIntersects) {
  const GeoBox a{0, 0, 10, 10};
  EXPECT_TRUE(a.contains(GeoPoint{5, 5}));
  EXPECT_TRUE(a.contains(GeoPoint{0, 0}));   // boundary inclusive
  EXPECT_FALSE(a.contains(GeoPoint{11, 5}));
  EXPECT_TRUE(a.contains(GeoBox{1, 1, 9, 9}));
  EXPECT_FALSE(a.contains(GeoBox{1, 1, 11, 9}));
  EXPECT_TRUE(a.intersects(GeoBox{9, 9, 20, 20}));
  EXPECT_TRUE(a.intersects(GeoBox{10, 10, 20, 20}));  // touching counts
  EXPECT_FALSE(a.intersects(GeoBox{10.01, 0, 20, 10}));
}

TEST(Raster, AccessAndEquality) {
  DemRaster r(3, 4, GeoTransform(), 9);
  EXPECT_EQ(r.cell_count(), 12);
  EXPECT_EQ(r.at(2, 3), 9);
  r.at(1, 2) = 42;
  EXPECT_EQ(r.at(1, 2), 42);
  EXPECT_EQ(r.row(1)[2], 42);
  DemRaster s = r;
  EXPECT_EQ(r, s);
  s.at(0, 0) = 1;
  EXPECT_NE(r, s);
}

TEST(Raster, OutOfRangeAccessThrows) {
  DemRaster r(3, 4);
  EXPECT_THROW((void)r.at(3, 0), InvalidArgument);
  EXPECT_THROW((void)r.at(0, 4), InvalidArgument);
  EXPECT_THROW((void)r.at(-1, 0), InvalidArgument);
}

TEST(Raster, CopyWindowPreservesCellsAndGeoreference) {
  DemRaster r(6, 8, GeoTransform(0.0, 6.0, 1.0, 1.0));
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 8; ++j) {
      r.at(i, j) = static_cast<CellValue>(i * 8 + j);
    }
  }
  r.set_nodata(CellValue{777});
  const DemRaster w = r.copy_window({2, 3, 3, 4});
  EXPECT_EQ(w.rows(), 3);
  EXPECT_EQ(w.cols(), 4);
  EXPECT_EQ(w.nodata(), r.nodata());
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(w.at(i, j), r.at(2 + i, 3 + j));
      const GeoPoint a = w.transform().cell_center(i, j);
      const GeoPoint b = r.transform().cell_center(2 + i, 3 + j);
      EXPECT_DOUBLE_EQ(a.x, b.x);
      EXPECT_DOUBLE_EQ(a.y, b.y);
    }
  }
  EXPECT_THROW(r.copy_window({4, 0, 3, 1}), InvalidArgument);
}

TEST(Tiling, CountsAndIds) {
  const TilingScheme t(100, 250, 60);
  EXPECT_EQ(t.tiles_y(), 2);  // ceil(100/60)
  EXPECT_EQ(t.tiles_x(), 5);  // ceil(250/60)
  EXPECT_EQ(t.tile_count(), 10u);
  EXPECT_EQ(t.tile_id(1, 3), 8u);
  EXPECT_EQ(t.tile_row(8), 1);
  EXPECT_EQ(t.tile_col(8), 3);
}

TEST(Tiling, WindowsPartitionTheRaster) {
  const TilingScheme t(100, 250, 60);
  std::int64_t total = 0;
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  for (TileId id = 0; id < t.tile_count(); ++id) {
    const CellWindow w = t.tile_window(id);
    EXPECT_GT(w.rows, 0);
    EXPECT_GT(w.cols, 0);
    EXPECT_LE(w.row0 + w.rows, 100);
    EXPECT_LE(w.col0 + w.cols, 250);
    total += w.cell_count();
    for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
      for (std::int64_t c = w.col0; c < w.col0 + w.cols; ++c) {
        ASSERT_TRUE(seen.emplace(r, c).second)
            << "cell covered twice: " << r << "," << c;
      }
    }
  }
  EXPECT_EQ(total, 100 * 250);
}

TEST(Tiling, EdgeTilesAreClipped) {
  const TilingScheme t(100, 250, 60);
  const CellWindow w = t.tile_window(t.tile_id(1, 4));
  EXPECT_EQ(w.rows, 40);   // 100 - 60
  EXPECT_EQ(w.cols, 10);   // 250 - 240
}

TEST(Tiling, TileBoxMatchesWindowGeometry) {
  const GeoTransform tr(0.0, 10.0, 0.1, 0.1);
  const TilingScheme t(100, 100, 10);  // 1x1-unit tiles
  const GeoBox b = t.tile_box(t.tile_id(2, 3), tr);
  EXPECT_DOUBLE_EQ(b.min_x, 3.0);
  EXPECT_DOUBLE_EQ(b.max_x, 4.0);
  EXPECT_DOUBLE_EQ(b.max_y, 8.0);
  EXPECT_DOUBLE_EQ(b.min_y, 7.0);
}

TEST(Tiling, TilesCoveringMatchesBruteForce) {
  const GeoTransform tr(0.0, 10.0, 0.1, 0.1);
  const TilingScheme t(100, 100, 10);
  const GeoBox query{2.35, 4.1, 5.99, 7.2};
  const auto got = t.tiles_covering(query, tr);
  std::set<TileId> got_set(got.begin(), got.end());
  std::set<TileId> expect;
  for (TileId id = 0; id < t.tile_count(); ++id) {
    if (t.tile_box(id, tr).intersects(query)) expect.insert(id);
  }
  EXPECT_EQ(got_set, expect);
}

TEST(Tiling, TilesCoveringOutsideRasterIsEmpty) {
  const GeoTransform tr(0.0, 10.0, 0.1, 0.1);
  const TilingScheme t(100, 100, 10);
  EXPECT_TRUE(t.tiles_covering({20.0, 20.0, 30.0, 30.0}, tr).empty());
  EXPECT_TRUE(t.tiles_covering({-5.0, -5.0, -1.0, -1.0}, tr).empty());
}

TEST(Tiling, PaperTileGeometry) {
  // Paper: 0.1-degree tiles on 1/3600-degree cells -> 360 cells/edge;
  // a 5x5-degree raster has 50x50 tiles (the 50MB footprint example).
  const TilingScheme t(5 * 3600, 5 * 3600, 360);
  EXPECT_EQ(t.tiles_x(), 50);
  EXPECT_EQ(t.tiles_y(), 50);
  EXPECT_EQ(t.tile_count(), 2500u);
}

}  // namespace
}  // namespace zh
