#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>

#include "core/baseline.hpp"
#include "core/pipeline.hpp"
#include "data/dem_synth.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

struct LazyCase {
  // gtest names each case after the raw bytes of its parameter: the
  // padding is spelled out and zeroed so the names do not change from
  // build to build with whatever the padding bytes happened to hold.
  std::uint32_t seed;
  std::uint32_t padding0{};
  std::int64_t tile;
  int zone_count;
  bool holes;
  std::array<std::uint8_t, 3> padding1{};
};
static_assert(std::has_unique_object_representations_v<LazyCase>);

class LazySweep : public ::testing::TestWithParam<LazyCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, LazySweep,
    ::testing::Values(
        LazyCase{.seed = 1, .tile = 10, .zone_count = 6, .holes = false},
        LazyCase{.seed = 2, .tile = 16, .zone_count = 10, .holes = true},
        LazyCase{.seed = 3, .tile = 7, .zone_count = 3, .holes = true},
        LazyCase{.seed = 4, .tile = 32, .zone_count = 1, .holes = false}));

TEST_P(LazySweep, MatchesEagerCompressedRun) {
  const LazyCase c = GetParam();
  Device dev;
  const DemRaster raster = generate_dem(
      96, 112, GeoTransform(0.0, 9.6, 0.1, 0.1),
      {.seed = c.seed, .max_value = 199});
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, c.tile);
  const PolygonSet zones = test::random_polygon_set(
      c.seed * 7, GeoBox{0.5, 0.5, 10.7, 9.1}, c.zone_count, c.holes);

  // The per-cell oracle, not another pipeline path: both compressed
  // entry points run the same executor.
  const HistogramSet oracle = zonal_scanline(raster, zones, 200);
  const ZonalConfig cfg{.tile_size = c.tile, .bins = 200};
  LazyCounters counters;
  const ZonalResult lazy =
      run_lazy(dev, compressed, zones, cfg, &counters);
  const ZonalPipeline pipe(dev, cfg);
  const ZonalResult eager = pipe.run(compressed, zones);

  EXPECT_EQ(lazy.per_polygon, oracle);
  EXPECT_EQ(eager.per_polygon, oracle);
  EXPECT_EQ(lazy.work.pairs_inside, eager.work.pairs_inside);
  EXPECT_EQ(lazy.work.pairs_intersect, eager.work.pairs_intersect);
  EXPECT_EQ(counters.tiles_total,
            static_cast<std::uint64_t>(compressed.tiling().tile_count()));
  EXPECT_LE(counters.tiles_decoded, counters.tiles_total);
  EXPECT_LE(counters.tiles_histogrammed, counters.tiles_decoded);
}

TEST(LazyPipeline, SkipsTilesOutsideEveryZone) {
  Device dev;
  // Zones confined to the western quarter: most tiles stay compressed.
  const DemRaster raster = generate_dem(
      80, 160, GeoTransform(0.0, 8.0, 0.1, 0.1), {.max_value = 99});
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, 8);
  const PolygonSet zones = test::random_polygon_set(
      5, GeoBox{0.3, 0.3, 3.7, 7.7}, 5, false);

  LazyCounters counters;
  const ZonalResult lazy = run_lazy(dev, compressed, zones,
                                    {.tile_size = 8, .bins = 100},
                                    &counters);
  EXPECT_GT(counters.tiles_decoded, 0u);
  EXPECT_LT(counters.tiles_decoded, counters.tiles_total / 2)
      << "western zones should leave most of the raster compressed";
  // And still exact.
  EXPECT_EQ(lazy.per_polygon, zonal_scanline(raster, zones, 100));
}

TEST(LazyPipeline, EmptyZoneLayerDecodesNothing) {
  Device dev;
  const DemRaster raster = test::random_raster(40, 40, 1, 9);
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, 8);
  LazyCounters counters;
  const ZonalResult r = run_lazy(dev, compressed, PolygonSet{},
                                 {.tile_size = 8, .bins = 10}, &counters);
  EXPECT_EQ(counters.tiles_decoded, 0u);
  EXPECT_EQ(counters.cells_decoded, 0u);
  EXPECT_EQ(r.per_polygon.groups(), 0u);
}

TEST(LazyPipeline, TileSizeMismatchThrows) {
  Device dev;
  const DemRaster raster = test::random_raster(40, 40, 1, 9);
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, 8);
  EXPECT_THROW(run_lazy(dev, compressed, PolygonSet{},
                        {.tile_size = 10, .bins = 10}),
               InvalidArgument);
}

}  // namespace
}  // namespace zh
