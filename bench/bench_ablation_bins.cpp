// Histogram-bin ablation (Sec. III.A): per-tile histogram memory grows
// linearly with the bin count (the paper budgets 50 MB for a 5x5-degree
// raster at 5000 bins), and for large bin counts privatized per-thread
// counting becomes impractical -- atomics into a shared per-tile
// histogram win. This bench sweeps bin counts and compares the two
// counting strategies.
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/step1_tile_hist.hpp"
#include "data/dem_synth.hpp"

int main() {
  using namespace zh;
  const int edge = bench::env_int("ZH_EDGE", 1800);
  const std::int64_t tile = bench::env_int("ZH_TILE", 360);

  std::printf("workload: %dx%d DEM, %lld-cell tiles\n", edge, edge,
              static_cast<long long>(tile));
  const DemRaster dem = generate_dem(
      edge, edge, GeoTransform(-100.0, 40.0, 1.0 / 3600.0, 1.0 / 3600.0),
      {.max_value = 65535});
  const TilingScheme tiling(dem.rows(), dem.cols(), tile);
  Device device;

  bench::print_header("Bin-count sweep: memory and counting strategies");
  std::printf("%8s %14s %12s %14s %10s\n", "bins", "table (MB)",
              "atomic (s)", "privatized (s)", "agree");
  bench::print_rule();

  for (const BinIndex bins : {16u, 64u, 256u, 1024u, 5000u, 16384u}) {
    const double table_mb = static_cast<double>(tiling.tile_count()) *
                            bins * sizeof(BinCount) / 1e6;
    Timer ta;
    const HistogramSet atomic =
        tile_histograms(device, dem, tiling, bins, CountMode::kAtomic);
    const double atomic_s = ta.seconds();

    // Privatized counting allocates bins x 256 counters per tile (one
    // histogram per thread of a 256-thread block); the paper rules it out
    // for large bin counts. Cap the sweep there.
    double priv_s = -1.0;
    bool agree = true;
    if (bins <= 1024) {
      Timer tp;
      const HistogramSet priv = tile_histograms(device, dem, tiling, bins,
                                                CountMode::kPrivatized);
      priv_s = tp.seconds();
      agree = priv == atomic;
    }
    if (priv_s >= 0.0) {
      std::printf("%8u %14.1f %12.3f %14.3f %10s\n", bins, table_mb,
                  atomic_s, priv_s, agree ? "yes" : "NO");
    } else {
      std::printf("%8u %14.1f %12.3f %14s %10s\n", bins, table_mb,
                  atomic_s, "(impractical)", "-");
    }
  }
  std::printf(
      "\nper-tile table memory grows linearly with bins; privatized\n"
      "counting additionally multiplies by the block width, which is why\n"
      "the paper uses atomicAdd for its 5000-bin histograms.\n");

  // The paper's Sec. III.A footprint example: a 5x5-degree raster at
  // 0.1-degree tiles (50x50 tiles) with 5000 int bins -> 50 MB.
  const TilingScheme paper_tiles(5 * 3600, 5 * 3600, 360);
  const double paper_mb = static_cast<double>(paper_tiles.tile_count()) *
                          5000 * sizeof(BinCount) / 1e6;
  std::printf("\npaper footprint check: 5x5-degree raster, 0.1-degree "
              "tiles, 5000 bins -> %.0f MB (paper says 50 MB) [%s]\n",
              paper_mb, paper_mb == 50.0 ? "MATCH" : "MISMATCH");
  return 0;
}
