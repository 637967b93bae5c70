// Multi-band zonal analysis: per-zone histograms of a 16-band image
// stack (GOES-R-style) in one series run, summarized as per-band means.
#include <algorithm>
#include <cstdio>

#include "zh.hpp"

int main() {
  using namespace zh;

  // A 16-band synthetic stack over one scene; each band is a different
  // noise seed (different spectral response).
  const GeoTransform transform(-98.0, 41.0, 0.01, 0.01);
  constexpr int kBands = 16;
  std::vector<DemRaster> bands;
  bands.reserve(kBands);
  for (int b = 0; b < kBands; ++b) {
    // Band values span exactly the histogram's 512 bins (radiance-like
    // 9-bit quantization), so histograms resolve real per-band shape.
    bands.push_back(generate_dem(
        400, 600, transform,
        {.seed = 7000 + static_cast<std::uint64_t>(b), .octaves = 4,
         .max_value = 511}));
  }

  CountyParams cp;
  cp.grid_x = 6;
  cp.grid_y = 4;
  const GeoBox ext = bands[0].extent();
  const PolygonSet zones = generate_counties(
      GeoBox{ext.min_x - 0.05, ext.min_y - 0.05, ext.max_x + 0.05,
             ext.max_y + 0.05},
      cp);

  Device device;
  Timer timer;
  const SeriesResult series = run_series(
      device, bands, zones, {.tile_size = 50, .bins = 512});
  std::printf("%d bands x %zu zones histogrammed in %.2f s "
              "(spatial filter ran once: %.3f s)\n\n",
              kBands, zones.size(), timer.seconds(),
              series.times.seconds[2]);

  // Per-zone spectral summary: mean of each band.
  std::printf("%-6s", "zone");
  for (int b = 0; b < 6; ++b) std::printf("  b%02d-mean", b);
  std::printf("  ...\n");
  for (PolygonId z = 0; z < std::min<std::size_t>(8, zones.size()); ++z) {
    std::printf("%-6s", zones.name(z).c_str());
    for (int b = 0; b < 6; ++b) {
      const ZonalStats s = stats_from_histogram(
          series.per_band[static_cast<std::size_t>(b)].of(z));
      std::printf("  %8.1f", s.mean);
    }
    std::printf("\n");
  }
  return 0;
}
