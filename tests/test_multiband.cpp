#include <gtest/gtest.h>

#include "core/multiband.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(MultiBand, SeriesEqualsPerBandRuns) {
  Device dev;
  const GeoTransform t(0.0, 8.0, 0.1, 0.1);
  std::vector<DemRaster> bands;
  for (std::uint32_t s = 0; s < 4; ++s) {
    bands.push_back(test::random_raster(80, 96, 100 + s, 199, t));
  }
  const PolygonSet zones = test::random_polygon_set(
      17, GeoBox{0.5, 0.5, 9.1, 7.5}, 7, /*holes=*/true);
  const ZonalConfig cfg{.tile_size = 16, .bins = 200};

  const SeriesResult series =
      run_series(dev, bands, zones, cfg);
  ASSERT_EQ(series.per_band.size(), bands.size());

  const ZonalPipeline pipe(dev, cfg);
  for (std::size_t b = 0; b < bands.size(); ++b) {
    const ZonalResult single = pipe.run(bands[b], zones);
    EXPECT_EQ(series.per_band[b], single.per_polygon) << "band " << b;
  }
}

TEST(MultiBand, PairingCountersChargedOnce) {
  Device dev;
  const GeoTransform t(0.0, 4.0, 0.1, 0.1);
  std::vector<DemRaster> bands;
  for (std::uint32_t s = 0; s < 3; ++s) {
    bands.push_back(test::random_raster(40, 40, s, 49, t));
  }
  const PolygonSet zones =
      test::random_polygon_set(3, GeoBox{0.5, 0.5, 3.5, 3.5}, 4, false);
  const ZonalConfig cfg{.tile_size = 8, .bins = 50};

  const SeriesResult series = run_series(dev, bands, zones, cfg);
  const ZonalPipeline pipe(dev, cfg);
  const ZonalResult single = pipe.run(bands[0], zones);

  // Pairing counters match ONE run; per-cell counters are 3x.
  EXPECT_EQ(series.work.candidate_pairs, single.work.candidate_pairs);
  EXPECT_EQ(series.work.pairs_inside, single.work.pairs_inside);
  EXPECT_EQ(series.work.pairs_intersect, single.work.pairs_intersect);
  EXPECT_EQ(series.work.cells_total, 3 * single.work.cells_total);
  EXPECT_EQ(series.work.pip_cell_tests, 3 * single.work.pip_cell_tests);
}

TEST(MultiBand, RejectsMisregisteredBands) {
  Device dev;
  std::vector<DemRaster> bands;
  bands.push_back(test::random_raster(20, 20, 1, 9));
  bands.push_back(test::random_raster(20, 21, 2, 9));
  EXPECT_THROW(run_series(dev, bands, PolygonSet{},
                          {.tile_size = 5, .bins = 10}),
               InvalidArgument);

  bands.pop_back();
  bands.push_back(test::random_raster(20, 20, 2, 9,
                                      GeoTransform(1.0, 1.0, 1.0, 1.0)));
  EXPECT_THROW(run_series(dev, bands, PolygonSet{},
                          {.tile_size = 5, .bins = 10}),
               InvalidArgument);
}

TEST(MultiBand, EmptySeries) {
  Device dev;
  const SeriesResult r = run_series(dev, {}, PolygonSet{},
                                    {.tile_size = 5, .bins = 10});
  EXPECT_TRUE(r.per_band.empty());
  EXPECT_EQ(r.work.cells_total, 0u);
}

}  // namespace
}  // namespace zh
