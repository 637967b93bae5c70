// Multi-band amortization bench (the intro's GOES-R/WRF motivation):
// zonal histogramming a 16-band stack with one shared Step-2 pairing vs
// 16 independent pipeline runs. The geometric filter is band-invariant,
// so the series path removes (bands-1) pairing passes.
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/multiband.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"

int main() {
  using namespace zh;
  const int edge = bench::env_int("ZH_EDGE", 1200);
  const int bands_n = bench::env_int("ZH_BANDS", 16);
  const int zones = bench::env_int("ZH_ZONES", 48);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 1000));

  std::printf("workload: %d bands of %dx%d cells, %d zones, %u bins\n",
              bands_n, edge, edge, zones, bins);
  const GeoTransform t(-100.0, 40.0, 1.0 / 240.0, 1.0 / 240.0);
  std::vector<DemRaster> bands;
  bands.reserve(static_cast<std::size_t>(bands_n));
  for (int b = 0; b < bands_n; ++b) {
    bands.push_back(generate_dem(
        edge, edge, t,
        {.seed = 1000 + static_cast<std::uint64_t>(b),
         .max_value = static_cast<CellValue>(bins - 1)}));
  }
  CountyParams cp;
  cp.grid_x = 8;
  cp.grid_y = zones / 8;
  const GeoBox ext = t.extent(edge, edge);
  const PolygonSet counties = generate_counties(
      GeoBox{ext.min_x - 0.1, ext.min_y - 0.1, ext.max_x + 0.1,
             ext.max_y + 0.1},
      cp);

  Device device;
  const ZonalConfig cfg{.tile_size = 60, .bins = bins};

  bench::print_header("Band series vs independent runs");
  Timer ts;
  const SeriesResult series = run_series(device, bands, counties, cfg);
  const double series_s = ts.seconds();
  std::printf("  %-38s %8.2f s  (step 2: %.2f s, once)\n",
              "run_series (shared pairing)", series_s,
              series.times.seconds[2]);

  Timer ti;
  const ZonalPipeline pipe(device, cfg);
  double step2_total = 0.0;
  bool equal = true;
  for (int b = 0; b < bands_n; ++b) {
    const ZonalResult r =
        pipe.run(bands[static_cast<std::size_t>(b)], counties);
    step2_total += r.times.seconds[2];
    equal &= r.per_polygon == series.per_band[static_cast<std::size_t>(b)];
  }
  const double indep_s = ti.seconds();
  std::printf("  %-38s %8.2f s  (step 2: %.2f s, %dx)\n",
              "independent runs", indep_s, step2_total, bands_n);
  std::printf("  results identical across paths: %s\n",
              equal ? "yes" : "NO");
  std::printf("  spatial-filter work removed by sharing: %.2f s "
              "(%d passes -> 1). Step 2 is deliberately cheap in this\n"
              "  design, so the saving scales with polygon complexity, "
              "not with raster size.\n",
              step2_total - series.times.seconds[2], bands_n);
  return equal ? 0 : 1;
}
