// Step-4 scheduling ablation:
//  (a) block granularity -- the paper's one-block-per-polygon kernel
//      (Fig. 5) vs one block per (polygon, tile) pair with atomics.
//      Coarse blocks serialize big polygons; fine blocks self-balance.
// Both must (and do) produce bit-identical histograms.
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"

int main() {
  using namespace zh;
  const int edge = bench::env_int("ZH_EDGE", 2400);
  const int zones = bench::env_int("ZH_ZONES", 24);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 500));

  const GeoTransform t(-100.0, 40.0, 1.0 / 240.0, 1.0 / 240.0);
  const DemRaster dem = generate_dem(edge, edge, t);
  CountyParams cp;
  cp.grid_x = 6;
  cp.grid_y = zones / 6;
  const GeoBox ext = t.extent(edge, edge);
  const PolygonSet counties = generate_counties(
      GeoBox{ext.min_x - 0.1, ext.min_y - 0.1, ext.max_x + 0.1,
             ext.max_y + 0.1},
      cp);
  std::printf("workload: %dx%d DEM, %zu zones (few, large: the "
              "coarse-granularity worst case)\n",
              edge, edge, counties.size());

  Device device;

  bench::print_header("(a) Step-4 block granularity");
  HistogramSet reference;
  for (const auto& [granularity, label] :
       {std::pair{RefineGranularity::kPolygonGroup,
                  "block per polygon (Fig. 5)"},
        std::pair{RefineGranularity::kPolygonTile,
                  "block per (polygon, tile) + atomics"}}) {
    // Ablates the Fig.-5 kernel's block granularity, so brute Step 4.
    const ZonalPipeline pipe(device,
                             {.tile_size = 60, .bins = bins,
                              .refine_granularity = granularity,
                              .refine_strategy = RefineStrategy::kBrute});
    const ZonalResult r = pipe.run(dem, counties);
    std::printf("  %-40s step4 %6.2f s   blocks %llu\n", label,
                r.times.seconds[4],
                static_cast<unsigned long long>(
                    granularity == RefineGranularity::kPolygonGroup
                        ? counties.size()
                        : r.work.pairs_intersect));
    if (reference.empty()) {
      reference = r.per_polygon;
    } else if (!(reference == r.per_polygon)) {
      std::printf("  ERROR: granularities disagree!\n");
      return 1;
    }
  }
  std::printf("  identical histograms. With %zu polygons vs %zu workers,\n"
              "  coarse blocks limit parallelism to the polygon count;\n"
              "  fine blocks expose pair-level parallelism (the GPU win).\n",
              counties.size(), ThreadPool::global().size());
  return 0;
}
