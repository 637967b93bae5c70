// Zone rasterization against the per-cell point-in-polygon oracle.
#include <gtest/gtest.h>

#include "core/rasterize.hpp"
#include "geom/pip.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(Rasterize, MatchesPerCellPip) {
  const GeoTransform t(0.0, 8.0, 0.1, 0.1);
  const PolygonSet zones = test::random_polygon_set(
      21, GeoBox{0.5, 0.5, 7.5, 7.5}, 6, /*holes=*/true);
  const Raster<PolygonId> ids = rasterize_zones(zones, 80, 80, t);

  for (std::int64_t r = 0; r < 80; ++r) {
    for (std::int64_t c = 0; c < 80; ++c) {
      const GeoPoint p = t.cell_center(r, c);
      // Expected: highest id whose polygon contains the center.
      PolygonId expect = kInvalidPolygon;
      for (PolygonId id = 0; id < zones.size(); ++id) {
        if (point_in_polygon(zones[id], p)) expect = id;
      }
      ASSERT_EQ(ids.at(r, c), expect) << "cell " << r << "," << c;
    }
  }
}

TEST(Rasterize, EmptyInputs) {
  const Raster<PolygonId> a =
      rasterize_zones(PolygonSet{}, 10, 10, GeoTransform());
  for (const PolygonId v : a.cells()) EXPECT_EQ(v, kInvalidPolygon);
  const Raster<PolygonId> b =
      rasterize_zones(PolygonSet{}, 0, 0, GeoTransform());
  EXPECT_EQ(b.cell_count(), 0);
}

}  // namespace
}  // namespace zh
