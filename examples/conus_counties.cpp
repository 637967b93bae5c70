// The paper's flagship experiment at laptop scale: zonal histogramming
// of county-style zones over the six Table-1 CONUS SRTM rasters,
// including BQ-Tree compression (Step 0) and an exactness check against
// the per-cell-PIP reference.
//
// Environment knobs: ZH_SCALE (default 60), ZH_ZONES (default 500),
// ZH_BINS (default 5000).
#include <cstdio>
#include <cstdlib>

#include "zh.hpp"

namespace {
int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoi(v) : fallback;
}
}  // namespace

int main() {
  using namespace zh;
  const int scale = env_int("ZH_SCALE", 60);
  const int zones = env_int("ZH_ZONES", 500);
  const auto bins = static_cast<BinIndex>(env_int("ZH_BINS", 5000));
  const std::int64_t tile = conus::tile_size_cells(scale);

  std::printf("CONUS zonal histogramming at 1/%d scale: %lld cells, "
              "%d zones, %u bins, 0.1-degree tiles (%lld cells/edge)\n\n",
              scale, static_cast<long long>(conus::total_cells(scale)),
              zones, bins, static_cast<long long>(tile));

  const PolygonSet counties = conus::generate_county_layer(zones);
  std::printf("county layer: %zu polygons, %zu vertices (paper: 3109 "
              "counties, 87,097 vertices)\n\n",
              counties.size(), counties.vertex_count());

  Device device;
  const ZonalPipeline pipeline(device, {.tile_size = tile, .bins = bins});

  HistogramSet merged(counties.size(), bins);
  StepTimes times;
  Timer wall;

  // Process each raster through its Table-1 partition windows (as the
  // cluster does): partitions are tile-aligned, so per-partition results
  // merge additively, and each partition's decoded raster stays bounded
  // the way the 6 GB device memory bounds it in the paper.
  for (const conus::RasterSpec& spec : conus::table1()) {
    const DemRaster dem = conus::generate_raster(spec, scale);
    const auto windows = grid_partition(dem.rows(), dem.cols(),
                                        spec.part_rows, spec.part_cols,
                                        tile);
    double ratio_sum = 0.0;
    double steps = 0.0;
    for (const CellWindow& win : windows) {
      const DemRaster part = dem.copy_window(win);
      const BqCompressedRaster compressed =
          BqCompressedRaster::encode(part, tile);
      const ZonalResult r = pipeline.run(compressed, counties);
      merged.add(r.per_polygon);
      times += r.times;
      ratio_sum += compressed.compression_ratio();
      steps += r.times.step_total();
    }
    std::printf("  %-14s %6lldx%-6lld  %2zu partitions  compressed to "
                "%5.1f%%  steps %.2fs\n",
                spec.name.c_str(), static_cast<long long>(dem.rows()),
                static_cast<long long>(dem.cols()), windows.size(),
                100.0 * ratio_sum / static_cast<double>(windows.size()),
                steps);
  }

  std::printf("\nend-to-end wall time: %.2f s (emulated device)\n",
              wall.seconds());
  for (std::size_t s = 0; s < StepTimes::kSteps; ++s) {
    std::printf("  %-52s %7.2f s\n", StepTimes::step_name(s).c_str(),
                times.seconds[s]);
  }

  // Top-5 zones by cell count, with classic zonal statistics.
  std::printf("\n%-10s %12s %7s %7s %9s %9s\n", "zone", "cells", "min",
              "max", "mean", "stddev");
  std::vector<PolygonId> order(counties.size());
  for (PolygonId i = 0; i < counties.size(); ++i) order[i] = i;
  std::partial_sort(order.begin(),
                    order.begin() + std::min<std::size_t>(5, order.size()),
                    order.end(), [&](PolygonId a, PolygonId b) {
                      return merged.group_total(a) > merged.group_total(b);
                    });
  for (std::size_t k = 0; k < std::min<std::size_t>(5, order.size()); ++k) {
    const PolygonId id = order[k];
    const ZonalStats s = stats_from_histogram(merged.of(id));
    std::printf("%-10s %12llu %7u %7u %9.1f %9.1f\n",
                counties.name(id).c_str(),
                static_cast<unsigned long long>(s.count), s.min, s.max,
                s.mean, s.stddev);
  }

  // Exactness spot check on the smallest raster: the pipeline must match
  // the per-cell reference bit for bit.
  const conus::RasterSpec& spec = conus::table1()[3];
  const DemRaster dem = conus::generate_raster(spec, scale);
  const ZonalResult check = pipeline.run(dem, counties);
  const HistogramSet expect = zonal_mbb_filter(dem, counties, bins);
  std::printf("\nexactness check vs per-cell PIP on %s: %s\n",
              spec.name.c_str(),
              check.per_polygon == expect ? "identical" : "MISMATCH");
  return check.per_polygon == expect ? 0 : 1;
}
