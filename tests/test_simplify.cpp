// Boundary simplification.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "geom/pip.hpp"
#include "geom/simplify.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(Simplify, ToleranceZeroIsIdentity) {
  std::mt19937 rng(3);
  const Ring ring = test::random_star_ring(rng, 5, 5, 2, 4, 40);
  EXPECT_EQ(simplify_ring(ring, 0.0), ring);
}

TEST(Simplify, RemovesCollinearVertices) {
  // A square with redundant midpoints on every edge.
  const Ring redundant = {{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2},
                          {1, 2}, {0, 2}, {0, 1}};
  const Ring s = simplify_ring(redundant, 1e-9);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(ring_signed_area(s), ring_signed_area(redundant));
}

TEST(Simplify, MonotoneInTolerance) {
  std::mt19937 rng(7);
  const Ring ring = test::random_star_ring(rng, 5, 5, 2, 4, 100);
  std::size_t prev = ring.size();
  for (const double eps : {0.001, 0.01, 0.1, 0.5}) {
    const Ring s = simplify_ring(ring, eps);
    EXPECT_LE(s.size(), prev) << "eps " << eps;
    EXPECT_GE(s.size(), 3u);
    prev = s.size();
  }
}

TEST(Simplify, PreservesShapeWithinTolerance) {
  std::mt19937 rng(9);
  const Polygon poly({test::random_star_ring(rng, 5, 5, 3, 4, 120)});
  const double eps = 0.05;
  const Polygon simp = simplify_polygon(poly, eps);
  EXPECT_LT(simp.vertex_count(), poly.vertex_count());
  // Area changes by at most roughly perimeter x eps.
  EXPECT_NEAR(simp.area(), poly.area(), 0.15 * poly.area());
  // Points well inside stay inside; points well outside stay outside.
  EXPECT_TRUE(point_in_polygon(simp, {5.0, 5.0}));
  EXPECT_FALSE(point_in_polygon(simp, {11.0, 11.0}));
}

TEST(Simplify, DropsCollapsedHolesKeepsOuter) {
  Polygon p({{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
             // A hole so slender it collapses under a large tolerance.
             {{4.0, 4.0}, {4.001, 4.0005}, {6.0, 4.001}}});
  const Polygon s = simplify_polygon(p, 0.5);
  EXPECT_EQ(s.ring_count(), 1u);
  // Over-aggressive tolerance must not destroy the outer ring either.
  const Polygon t = simplify_polygon(p, 100.0);
  EXPECT_GE(t.rings()[0].size(), 3u);
}

TEST(Simplify, SetPreservesNamesAndCount) {
  const PolygonSet set = test::random_polygon_set(
      11, GeoBox{0.5, 0.5, 9.5, 9.5}, 6, true);
  const PolygonSet simp = simplify_set(set, 0.05);
  ASSERT_EQ(simp.size(), set.size());
  EXPECT_LT(simp.vertex_count(), set.vertex_count());
  for (PolygonId id = 0; id < set.size(); ++id) {
    EXPECT_EQ(simp.name(id), set.name(id));
  }
}

TEST(Simplify, HistogramErrorBoundedAndWorkReduced) {
  // The ablation's core claim as a test: simplification cuts Step-4
  // edge tests while the histogram mass moves only near boundaries.
  Device dev;
  const DemRaster raster = test::random_raster(
      120, 120, 13, 99, GeoTransform(0.0, 12.0, 0.1, 0.1));
  std::mt19937 rng(5);
  PolygonSet zones;
  zones.add(Polygon({test::random_star_ring(rng, 6, 6, 3, 5, 200)}));

  const ZonalPipeline pipe(dev, {.tile_size = 12, .bins = 100});
  const ZonalResult exact = pipe.run(raster, zones);
  const PolygonSet simp = simplify_set(zones, 0.05);
  const ZonalResult approx = pipe.run(raster, simp);

  EXPECT_LT(approx.work.pip_edge_tests, exact.work.pip_edge_tests);
  const auto err = histogram_l1_distance(exact.per_polygon.of(0),
                                         approx.per_polygon.of(0));
  const auto mass = exact.per_polygon.group_total(0);
  EXPECT_LT(err, mass / 5) << "simplification moved >20% of the mass";
}

TEST(Simplify, RejectsNegativeTolerance) {
  EXPECT_THROW(simplify_ring({{0, 0}, {1, 0}, {1, 1}}, -1.0),
               InvalidArgument);
}

}  // namespace
}  // namespace zh
