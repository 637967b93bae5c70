// Every zonal entry point runs the one filter-first executor, and each
// must match the per-cell oracle (zonal_scanline) on the same inputs.
// Raw entry points get a raster with a nodata value; BQ entry points get
// the same cells without one (the container cannot store nodata). Cell
// values reach past the bin count, so the top-bin clamp is exercised,
// and the zones cover only the western part of the raster, so some
// tiles are never demanded.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/cluster_driver.hpp"
#include "core/hybrid.hpp"
#include "core/multiband.hpp"
#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

constexpr BinIndex kBins = 200;
constexpr CellValue kMaxValue = 299;  // values >= kBins clamp
constexpr CellValue kNodata = 7;
const ZonalConfig kConfig{.tile_size = 8, .bins = kBins};

/// The BQ-path raster: no nodata value.
DemRaster dense_raster() {
  return test::random_raster(64, 96, 3, kMaxValue,
                             GeoTransform(0.0, 6.4, 0.1, 0.1));
}

/// The raw-path raster: the same cells, with kNodata declared.
DemRaster nodata_raster() {
  DemRaster r = dense_raster();
  r.set_nodata(kNodata);
  return r;
}

/// Zones in the western half of the 9.6 x 6.4 extent.
PolygonSet zones() {
  return test::random_polygon_set(11, GeoBox{0.3, 0.3, 4.5, 6.1}, 5,
                                  /*holes_every_other=*/true);
}

/// The cluster driver over a 2x3 partition schema on `ranks` ranks.
HistogramSet run_driver(const DemRaster& r, const PolygonSet& z,
                         std::size_t ranks) {
  ClusterRunConfig cfg;
  cfg.ranks = ranks;
  cfg.zonal = kConfig;
  cfg.fault_tolerance.worker_timeout_ms = 10000;
  return run_cluster_zonal({r}, {{2, 3}}, z, cfg).merged;
}

struct EntryPoint {
  std::string name;
  bool bq = false;  ///< runs from BQ input (raster without nodata)
  std::function<HistogramSet(const DemRaster&, const PolygonSet&)> run;
};

// Listings show the entry point's name, not its bytes.
void PrintTo(const EntryPoint& e, std::ostream* os) { *os << e.name; }

std::vector<EntryPoint> entry_points() {
  return {
      {"RunRaw", false,
       [](const DemRaster& r, const PolygonSet& z) {
         Device dev;
         return ZonalPipeline(dev, kConfig).run(r, z).per_polygon;
       }},
      {"RunCompressed", true,
       [](const DemRaster& r, const PolygonSet& z) {
         Device dev;
         return ZonalPipeline(dev, kConfig)
             .run(BqCompressedRaster::encode(r, kConfig.tile_size), z)
             .per_polygon;
       }},
      {"Cluster1Rank", false,
       [](const DemRaster& r, const PolygonSet& z) {
         return run_driver(r, z, 1);
       }},
      {"Cluster3Ranks", false,
       [](const DemRaster& r, const PolygonSet& z) {
         return run_driver(r, z, 3);
       }},
      {"RunLazy", true,
       [](const DemRaster& r, const PolygonSet& z) {
         Device dev;
         return run_lazy(dev,
                         BqCompressedRaster::encode(r, kConfig.tile_size),
                         z, kConfig)
             .per_polygon;
       }},
      {"QueryEngine", false,
       [](const DemRaster& r, const PolygonSet& z) {
         Device dev;
         QueryEngine engine(dev, {.tile_size = kConfig.tile_size});
         const RasterHandle h = engine.add_raster(r);
         return engine.run({.raster = h, .zones = &z, .bins = kBins})
             .per_polygon;
       }},
      {"RunSeriesBandK", false,
       [](const DemRaster& r, const PolygonSet& z) {
         // Band 1 of three co-registered bands.
         std::vector<DemRaster> bands;
         bands.push_back(test::random_raster(r.rows(), r.cols(), 91,
                                             kMaxValue, r.transform()));
         bands.push_back(r);
         bands.push_back(test::random_raster(r.rows(), r.cols(), 92,
                                             kMaxValue, r.transform()));
         Device dev;
         SeriesResult s = run_series(dev, bands, z, kConfig);
         return std::move(s.per_band.at(1));
       }},
      {"RunHybrid", false,
       [](const DemRaster& r, const PolygonSet& z) {
         Device gpu(DeviceProfile::gtx_titan());
         Device cpu(DeviceProfile::host());
         return run_hybrid(gpu, cpu, r, z,
                           {.zonal = kConfig, .primary_fraction = 0.5})
             .per_polygon;
       }},
  };
}

class EntryPoints : public ::testing::TestWithParam<EntryPoint> {};

INSTANTIATE_TEST_SUITE_P(
    All, EntryPoints, ::testing::ValuesIn(entry_points()),
    [](const ::testing::TestParamInfo<EntryPoint>& info) {
      return info.param.name;
    });

TEST_P(EntryPoints, MatchPerCellOracle) {
  const EntryPoint& entry = GetParam();
  const DemRaster raster = entry.bq ? dense_raster() : nodata_raster();
  const PolygonSet z = zones();
  EXPECT_EQ(entry.run(raster, z), zonal_scanline(raster, z, kBins));
}

// Guards the table above: the inputs must keep exercising nodata, the
// top-bin clamp and undemanded tiles, or a broken path could still pass.
TEST(EntryPointInputs, CoverNodataClampAndUndemandedTiles) {
  const DemRaster raster = nodata_raster();
  const auto cells = raster.cells();
  EXPECT_GT(std::count(cells.begin(), cells.end(), kNodata), 0);
  EXPECT_GT(std::count_if(cells.begin(), cells.end(),
                          [](CellValue v) { return v >= kBins; }),
            0);

  Device dev;
  LazyCounters counters;
  (void)run_lazy(dev, BqCompressedRaster::encode(dense_raster(), 8), zones(),
                 kConfig, &counters);
  EXPECT_GT(counters.tiles_histogrammed, 0u);
  EXPECT_LT(counters.tiles_decoded, counters.tiles_total);
}

}  // namespace
}  // namespace zh
