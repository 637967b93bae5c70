// QueryEngine correctness: every query result must be bit-identical to a
// fresh ZonalPipeline::run on the same inputs (DESIGN.md §9).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

DemRaster make_raster(std::uint32_t seed) {
  return generate_dem(90, 110, GeoTransform(0.0, 9.0, 0.1, 0.1),
                      {.seed = seed, .max_value = 99});
}

PolygonSet make_zones(std::uint32_t seed, bool holes = false) {
  return test::random_polygon_set(seed, GeoBox{0.5, 0.5, 10.5, 8.5}, 8, holes);
}

/// Tessellating zones: large enough that many tiles are fully inside,
/// so the inside count has work (inside pairs count straight into zone
/// rows; intersect pairs go to Step-4 refinement).
PolygonSet make_county_zones(std::uint64_t seed) {
  CountyParams cp;
  cp.seed = seed;
  cp.grid_x = 3;
  cp.grid_y = 3;
  return generate_counties(GeoBox{-0.4, -0.4, 11.4, 9.4}, cp);
}

QueryEngineConfig small_config() {
  QueryEngineConfig cfg;
  cfg.tile_size = 8;
  return cfg;
}

TEST(QueryEngine, MatchesZonalPipelineBitExactly) {
  Device dev;
  const DemRaster raster = make_raster(11);
  const PolygonSet zones = make_zones(101, /*holes=*/true);

  QueryEngine engine(dev, small_config());
  const RasterHandle h = engine.add_raster(raster);
  const QueryResult got =
      engine.run({.raster = h, .zones = &zones, .bins = 100});

  const ZonalPipeline pipe(dev, {.tile_size = 8, .bins = 100});
  const ZonalResult want = pipe.run(raster, zones);
  EXPECT_EQ(got.per_polygon, want.per_polygon);
  EXPECT_EQ(got.work.pairs_inside, want.work.pairs_inside);
  EXPECT_EQ(got.work.pairs_intersect, want.work.pairs_intersect);
  EXPECT_EQ(got.work.cells_in_polygons, want.work.cells_in_polygons);
}

TEST(QueryEngine, DefaultConfigRefinesDenseLayerByScanline) {
  // 64-vertex stars: dense enough in edges per boundary tile that the
  // default strategy resolves to the scanline path.
  Device dev;
  const DemRaster raster = make_raster(17);
  std::mt19937 rng(23);
  PolygonSet zones;
  zones.add(test::random_star_polygon(rng, 3.0, 4.5, 2.5, 64, true));
  zones.add(test::random_star_polygon(rng, 8.0, 4.0, 2.0, 64));

  QueryEngine by_default(dev, small_config());
  QueryEngineConfig brute_cfg = small_config();
  brute_cfg.refine_strategy = RefineStrategy::kBrute;
  QueryEngine brute(dev, brute_cfg);
  const ZonalQuery q{.raster = by_default.add_raster(raster),
                     .zones = &zones,
                     .bins = 100};
  ASSERT_EQ(brute.add_raster(raster), q.raster);
  const QueryResult got = by_default.run(q);
  const QueryResult want = brute.run(q);
  EXPECT_GT(got.work.pip_rows_scanned, 0u);
  EXPECT_EQ(want.work.pip_rows_scanned, 0u);
  EXPECT_EQ(got.per_polygon, want.per_polygon);
  EXPECT_GT(got.per_polygon.total(), 0u);
}

TEST(QueryEngine, BatchMatchesIndependentRunsWithSharing) {
  Device dev;
  const DemRaster raster = make_raster(13);
  const PolygonSet zones_a = make_county_zones(103);
  const PolygonSet zones_b = make_county_zones(104);

  QueryEngine engine(dev, small_config());
  const RasterHandle h = engine.add_raster(raster);
  const std::vector<ZonalQuery> batch = {
      {.raster = h, .zones = &zones_a, .bins = 100},
      {.raster = h, .zones = &zones_b, .bins = 100},
  };
  const std::vector<QueryResult> results = engine.run_batch(batch);
  ASSERT_EQ(results.size(), 2u);

  // Two zone layers share one registered raster; each answer is
  // bit-identical to an independent pipeline run.
  const ZonalPipeline pipe(dev, {.tile_size = 8, .bins = 100});
  EXPECT_EQ(results[0].per_polygon, pipe.run(raster, zones_a).per_polygon);
  EXPECT_EQ(results[1].per_polygon, pipe.run(raster, zones_b).per_polygon);
  EXPECT_GT(results[0].work.pairs_inside, 0u);
}

TEST(QueryEngine, DistinctBinningsDoNotAlias) {
  // Queries at different bin counts on one engine: the second answer
  // owes nothing to the first.
  Device dev;
  const DemRaster raster = make_raster(14);
  const PolygonSet zones = make_zones(105);

  QueryEngine engine(dev, small_config());
  const RasterHandle h = engine.add_raster(raster);
  const QueryResult a = engine.run({.raster = h, .zones = &zones, .bins = 100});
  const QueryResult b = engine.run({.raster = h, .zones = &zones, .bins = 50});

  Device dev2;
  const ZonalPipeline pipe100(dev2, {.tile_size = 8, .bins = 100});
  const ZonalPipeline pipe50(dev2, {.tile_size = 8, .bins = 50});
  EXPECT_EQ(a.per_polygon, pipe100.run(raster, zones).per_polygon);
  EXPECT_EQ(b.per_polygon, pipe50.run(raster, zones).per_polygon);
}

TEST(QueryEngine, DistinctRastersDoNotAlias) {
  // Each handle answers from the raster it was registered with.
  Device dev;
  const DemRaster r1 = make_raster(15);
  const DemRaster r2 = make_raster(16);
  const PolygonSet zones = make_zones(106);

  QueryEngine engine(dev, small_config());
  const RasterHandle h1 = engine.add_raster(r1);
  const RasterHandle h2 = engine.add_raster(r2);
  EXPECT_EQ(engine.raster_count(), 2u);

  const QueryResult a = engine.run({.raster = h1, .zones = &zones, .bins = 100});
  const QueryResult b = engine.run({.raster = h2, .zones = &zones, .bins = 100});
  const ZonalPipeline pipe(dev, {.tile_size = 8, .bins = 100});
  EXPECT_EQ(a.per_polygon, pipe.run(r1, zones).per_polygon);
  EXPECT_EQ(b.per_polygon, pipe.run(r2, zones).per_polygon);
}

TEST(QueryEngine, RejectsInvalidQueries) {
  Device dev;
  const DemRaster raster = make_raster(19);
  const PolygonSet zones = make_zones(109);
  QueryEngine engine(dev, small_config());
  const RasterHandle h = engine.add_raster(raster);

  EXPECT_THROW((void)engine.run({.raster = h + 1, .zones = &zones, .bins = 100}),
               InvalidArgument);
  EXPECT_THROW((void)engine.run({.raster = h, .zones = nullptr, .bins = 100}),
               InvalidArgument);
  EXPECT_THROW((void)engine.run({.raster = h, .zones = &zones, .bins = 0}),
               InvalidArgument);
}

TEST(QueryEngine, EmptyZoneSetYieldsEmptyResult) {
  Device dev;
  const DemRaster raster = make_raster(20);
  const PolygonSet zones;  // no polygons
  QueryEngine engine(dev, small_config());
  const RasterHandle h = engine.add_raster(raster);
  const QueryResult r = engine.run({.raster = h, .zones = &zones, .bins = 100});
  EXPECT_EQ(r.per_polygon.groups(), 0u);
  EXPECT_EQ(r.work.pairs_inside + r.work.pairs_intersect, 0u);
}

}  // namespace
}  // namespace zh
