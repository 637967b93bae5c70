// Filter-first decode ablation: when the zone layer covers only part of
// the raster (the paper's southern-Florida / coverage-edge observation),
// pairing first lets Step 0 skip every tile outside all zones and
// Step 1 skip everything but inside tiles. Sweeps zone-coverage fraction
// and reports the decode/histogram work left, checked against the
// per-cell oracle.
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/baseline.hpp"
#include "core/pipeline.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"

int main() {
  using namespace zh;
  const int edge = bench::env_int("ZH_EDGE", 2400);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 500));
  const std::int64_t tile = bench::env_int("ZH_TILE", 60);

  const GeoTransform t(-100.0, 40.0, 1.0 / 240.0, 1.0 / 240.0);
  std::printf("workload: %dx%d DEM, tile=%lld, %u bins\n", edge, edge,
              static_cast<long long>(tile), bins);
  const DemRaster dem = generate_dem(edge, edge, t);
  Timer enc;
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(dem, tile);
  std::printf("compressed to %.1f%% in %.1fs\n\n",
              100.0 * compressed.compression_ratio(), enc.seconds());

  Device device;
  const ZonalConfig cfg{.tile_size = tile, .bins = bins};
  const GeoBox ext = t.extent(edge, edge);

  bench::print_header("Zone-coverage sweep: filter-first decode");
  std::printf("%10s %12s %12s %12s %10s %8s\n", "coverage", "tiles",
              "decoded", "hist'd", "time(s)", "exact");
  bench::print_rule();

  for (const double coverage : {1.0, 0.5, 0.25, 0.1}) {
    CountyParams cp;
    cp.grid_x = 5;
    cp.grid_y = 4;
    const double w = ext.width() * coverage;
    const PolygonSet zones = generate_counties(
        GeoBox{ext.min_x + 0.01, ext.min_y + 0.01, ext.min_x + w,
               ext.max_y - 0.01},
        cp);

    Timer tl;
    LazyCounters counters;
    const ZonalResult lazy =
        run_lazy(device, compressed, zones, cfg, &counters);
    const double lazy_s = tl.seconds();

    const bool exact =
        lazy.per_polygon == zonal_scanline(dem, zones, bins);

    std::printf("%9.0f%% %12llu %12llu %12llu %10.2f %8s\n",
                100.0 * coverage,
                static_cast<unsigned long long>(counters.tiles_total),
                static_cast<unsigned long long>(counters.tiles_decoded),
                static_cast<unsigned long long>(
                    counters.tiles_histogrammed),
                lazy_s, exact ? "yes" : "NO");
  }
  std::printf(
      "\ndecode and per-tile-histogram work scale with zone coverage.\n");
  return 0;
}
