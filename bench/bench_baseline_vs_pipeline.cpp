// Pipeline vs. baselines (Sec. II / Sec. IV.C claims).
//
// Two distinct claims are reproduced here:
//  1. *Exactness*: the 4-step pipeline produces bit-identical histograms
//     to per-cell-PIP and scanline-rasterization references.
//  2. *Performance*: the paper "observed orders of magnitude better
//     performance" than traditional GIS software. That comparison is
//     GPU-parallel pipeline vs serial CPU software. On this host the
//     pipeline runs as a 1-thread-per-core emulation, so its *measured*
//     time shows the algorithm without the parallel hardware; the
//     *projected* GTX Titan time (PerfModel over exact work counters) is
//     what faces the serial baselines, as in the paper. Note that the
//     serial scanline is the better serial algorithm (O(crossings) per
//     row, not O(vertices) per cell) -- the paper's pipeline wins by
//     exposing massive data parallelism, not by lowering op counts.
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/baseline.hpp"
#include "core/perf_model.hpp"
#include "core/pipeline.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"

int main() {
  using namespace zh;
  const int edge = bench::env_int("ZH_EDGE", 2400);
  const int zones = bench::env_int("ZH_ZONES", 24);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 1000));
  const std::int64_t tile = bench::env_int("ZH_TILE", 40);

  std::printf("workload: %dx%d DEM (%s cells), %d zones, %u bins, "
              "tile=%lld\n",
              edge, edge,
              bench::with_commas(static_cast<unsigned long long>(edge) *
                                 edge).c_str(),
              zones, bins, static_cast<long long>(tile));
  const GeoTransform t(-100.0, 40.0, 1.0 / 240.0, 1.0 / 240.0);
  const DemRaster dem = generate_dem(edge, edge, t);
  CountyParams cp;
  cp.grid_x = 6;
  cp.grid_y = zones / 6;
  cp.hole_every = 10;
  const GeoBox ext = t.extent(edge, edge);
  const PolygonSet counties = generate_counties(
      GeoBox{ext.min_x - 0.1, ext.min_y - 0.1, ext.max_x + 0.1,
             ext.max_y + 0.1},
      cp);

  Device device;
  // The paper's pipeline, Fig.-5 kernel included.
  const ZonalPipeline pipe(device, {.tile_size = tile, .bins = bins,
                                    .refine_strategy = RefineStrategy::kBrute});

  Timer tp;
  const ZonalResult pr = pipe.run(dem, counties);
  const double pipeline_emulated_s = tp.seconds();
  const PerfModel model;
  const StepTimes titan =
      model.project(pr.work, DeviceProfile::gtx_titan());
  const double pipeline_gpu_s = titan.step_total();

  Timer ts;
  const HistogramSet scan = zonal_scanline(dem, counties, bins);
  const double scan_s = ts.seconds();

  Timer tm;
  const HistogramSet mbb = zonal_mbb_filter(dem, counties, bins);
  const double mbb_s = tm.seconds();

  bench::print_header("Zonal histogramming: pipeline vs serial baselines");
  std::printf("  %-44s %10.3f s\n",
              "pipeline, emulated on host (structure only)",
              pipeline_emulated_s);
  std::printf("  %-44s %10.3f s\n",
              "pipeline, projected on GTX Titan (paper cfg)",
              pipeline_gpu_s);
  std::printf("  %-44s %10.3f s   (%5.1fx vs GPU)\n",
              "scanline rasterization, serial (GIS-style)", scan_s,
              scan_s / pipeline_gpu_s);
  std::printf("  %-44s %10.3f s   (%5.1fx vs GPU)\n",
              "per-cell PIP with MBB filter, serial", mbb_s,
              mbb_s / pipeline_gpu_s);

  bench::print_header("Work accounting (why the filter matters)");
  std::printf("  tiles inside polygons (histograms reused): %llu\n",
              static_cast<unsigned long long>(pr.work.pairs_inside));
  std::printf("  tiles on boundaries (need per-cell PIP):   %llu\n",
              static_cast<unsigned long long>(pr.work.pairs_intersect));
  std::printf("  PIP cell tests / raster cells:             %.2f\n",
              static_cast<double>(pr.work.pip_cell_tests) /
                  static_cast<double>(pr.work.cells_total));
  std::printf("  (a pipeline without Step-2/3 filtering would PIP-test\n"
              "   every cell against every overlapping zone)\n");

  bench::print_header("Result validation");
  const bool ok_mbb = pr.per_polygon == mbb;
  const bool ok_scan = pr.per_polygon == scan;
  std::printf("  pipeline == MBB-filter baseline: %s\n",
              ok_mbb ? "identical" : "MISMATCH");
  std::printf("  pipeline == scanline baseline:   %s\n",
              ok_scan ? "identical" : "MISMATCH");
  return (ok_mbb && ok_scan) ? 0 : 1;
}
