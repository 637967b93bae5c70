// Every zonal entry point runs the one filter-first executor, and each
// must match the per-cell oracle (zonal_scanline) on the same inputs.
// Raw entry points get a raster with a nodata value; BQ entry points get
// the same cells without one (the container cannot store nodata). Cell
// values reach past the bin count, so the top-bin clamp is exercised.
// Three zone layers run against it: zones in the western part of the
// raster (some tiles are never demanded), two overlapping zones (a tile
// inside both is counted once per zone), and one zone covering the whole
// raster (its inside group is split across the pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/cluster_driver.hpp"
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

Ring box_ring(double x0, double y0, double x1, double y1) {
  return {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}};
}

/// Two zones overlapping in x 3.15..6.05: the tiles there lie inside
/// both. The eastern zone has a hole, so it also has inner boundaries.
PolygonSet overlapping_zones() {
  PolygonSet set;
  set.add(Polygon({box_ring(0.35, 0.45, 6.05, 5.95)}));
  Ring hole = box_ring(6.55, 2.05, 7.45, 3.95);
  std::reverse(hole.begin(), hole.end());
  set.add(Polygon({box_ring(3.15, 0.25, 9.25, 6.15), hole}));
  return set;
}

/// One zone past every edge of the raster: all tiles are inside it.
PolygonSet whole_raster_zone() {
  PolygonSet set;
  set.add(Polygon({box_ring(-1.0, -1.0, 10.6, 7.4)}));
  return set;
}

struct ZoneInput {
  const char* name;
  PolygonSet zones;
};

std::vector<ZoneInput> zone_inputs() {
  return {{"western", zones()},
          {"overlapping", overlapping_zones()},
          {"whole_raster", whole_raster_zone()}};
}

ZonalPlan plan_for(const DemRaster& r, const PolygonSet& z) {
  return make_plan(z, TilingScheme(r.rows(), r.cols(), kConfig.tile_size),
                   r.transform());
}

/// The cluster driver over a 2x3 partition schema on `ranks` ranks.
HistogramSet run_driver(const DemRaster& r, const PolygonSet& z,
                         std::size_t ranks) {
  ClusterRunConfig cfg;
  cfg.ranks = ranks;
  cfg.zonal = kConfig;
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
  for (const ZoneInput& input : zone_inputs()) {
    SCOPED_TRACE(input.name);
    EXPECT_EQ(entry.run(raster, input.zones),
              zonal_scanline(raster, input.zones, kBins));
  }
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

// Guards the overlapping input: some tile lies inside both zones.
TEST(EntryPointInputs, OverlappingZonesShareAnInsideTile) {
  const ZonalPlan plan = plan_for(nodata_raster(), overlapping_zones());
  ASSERT_EQ(plan.pairing.inside.group_count(), 2u);
  std::vector<int> zones_containing(plan.tiling.tile_count(), 0);
  for (const TileId t : plan.pairing.inside.tid_v) ++zones_containing[t];
  EXPECT_EQ(*std::max_element(zones_containing.begin(),
                              zones_containing.end()),
            2);
}

// Guards the whole-raster input: one zone holds every tile, more than its
// share on any pool of two or more threads, so the inside count splits
// it. An explicit 4-thread pool makes the split independent of the host,
// and the split result must still match the oracle.
TEST(EntryPointInputs, WholeRasterZoneTakesSplitPath) {
  const DemRaster raster = nodata_raster();
  const PolygonSet z = whole_raster_zone();
  const ZonalPlan plan = plan_for(raster, z);
  ASSERT_EQ(plan.pairing.inside.group_count(), 1u);
  EXPECT_EQ(plan.pairing.inside.pair_count(), plan.tiling.tile_count());

  ThreadPool pool(4);
  Device dev(DeviceProfile::host(), &pool);
  EXPECT_EQ(ZonalPipeline(dev, kConfig).run(raster, z).per_polygon,
            zonal_scanline(raster, z, kBins));
  EXPECT_EQ(dev.kernel_profiles().at("ZoneHistKernel").blocks, 4u);
}

// A zone with a far but finite vertex keeps its cells on every path. The
// vertex at x = 1e300 once made the column lookup of the zone's MBB wrap
// to INT64_MIN, so every tile-based path and the MBB-windowed baselines
// saw the zone west of the raster and counted nothing; only the
// whole-raster zonal_naive counted its cells.
TEST(EntryPointInputs, FarVertexZoneMatchesNaiveOnEveryPath) {
  constexpr BinIndex kFarBins = 64;
  const DemRaster raster =
      test::random_raster(100, 100, 5, 63, GeoTransform(0.0, 10.0, 0.1, 0.1));
  const ZonalConfig cfg{.tile_size = 10, .bins = kFarBins};
  for (const double far : {1e3, 1e17, 1e300}) {
    SCOPED_TRACE("far vertex x = " + std::to_string(far));
    PolygonSet z;
    z.add(Polygon({{{1, 1}, {9, 1}, {far, 5}, {9, 9}, {1, 9}}}));
    const HistogramSet want = zonal_naive(raster, z, kFarBins);
    EXPECT_EQ(want.total(), 7200u);
    Device dev;
    EXPECT_EQ(ZonalPipeline(dev, cfg).run(raster, z).per_polygon, want);
    EXPECT_EQ(ZonalPipeline(dev, cfg)
                  .run(BqCompressedRaster::encode(raster, cfg.tile_size), z)
                  .per_polygon,
              want);
    QueryEngine engine(dev, {.tile_size = cfg.tile_size});
    EXPECT_EQ(engine
                  .run({.raster = engine.add_raster(raster),
                        .zones = &z,
                        .bins = kFarBins})
                  .per_polygon,
              want);
    EXPECT_EQ(zonal_scanline(raster, z, kFarBins), want);
    EXPECT_EQ(zonal_mbb_filter(raster, z, kFarBins), want);
  }
}

// WorkCounters::values_clamped counts clamped (cell, zone) attributions,
// the unit of the per-cell oracle: a clamped cell in a tile inside both
// overlapping zones counts twice. The oracle is zonal_scanline with a bin
// for every value: its counts in bins >= kBins are the attributions the
// kBins-bin run folds into its top bin.
TEST(EntryPointInputs, ValuesClampedMatchesOracleOnOverlappingZones) {
  const DemRaster raster = nodata_raster();
  const PolygonSet z = overlapping_zones();
  const HistogramSet wide = zonal_scanline(raster, z, kMaxValue + 1);
  std::uint64_t oracle = 0;
  for (std::size_t zone = 0; zone < wide.groups(); ++zone) {
    const std::span<const BinCount> row = wide.of(zone);
    for (BinIndex b = kBins; b < row.size(); ++b) oracle += row[b];
  }
  EXPECT_GT(oracle, 0u);
  Device dev;
  const ZonalResult r = ZonalPipeline(dev, kConfig).run(raster, z);
  EXPECT_EQ(r.work.values_clamped, oracle);
  EXPECT_EQ(r.per_polygon.total(), wide.total());
}

}  // namespace
}  // namespace zh
