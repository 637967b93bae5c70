// Observability kill-switch overhead check.
//
// Runs the Table-2 pipeline workload (one CONUS raster) with all
// instrumentation *disabled at runtime* -- the state every production
// run is in unless --trace is passed -- and prints the
// best-of-N wall time as a machine-readable line:
//
//   ZH_OBS_BENCH_SECONDS=<seconds>
//
// tools/check.sh runs this binary from both the regular (ZH_OBS=ON)
// build and the obs-off preset (ZH_OBS=OFF, macros compiled to no-ops)
// and asserts the ON/OFF ratio stays within a small tolerance: the cost
// of a dormant span site must stay in the noise. The report it writes is
// the committed BENCH_obs_overhead.json baseline that the zh_perf gate
// self-compares.
//
// Knobs: ZH_SCALE (default 60), ZH_ZONES (256), ZH_BINS (256),
// ZH_REPS (3).
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "core/pipeline.hpp"

int main() {
  using namespace zh;
  const int scale = bench::env_int("ZH_SCALE", 60);
  const int zones = bench::env_int("ZH_ZONES", 256);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 256));
  const int reps = std::max(1, bench::env_int("ZH_REPS", 3));
  const std::int64_t tile = conus::tile_size_cells(scale);

  const conus::RasterSpec spec = conus::table1()[0];
  const DemRaster raster = conus::generate_raster(spec, scale);
  const PolygonSet counties = conus::generate_county_layer(zones, 7);
  std::printf("obs-overhead workload: %lldx%lld raster, %d zones, %u "
              "bins, %d reps\n",
              static_cast<long long>(raster.rows()),
              static_cast<long long>(raster.cols()), zones, bins, reps);

  Device device(DeviceProfile::host());
  const ZonalPipeline pipeline(device, {.tile_size = tile, .bins = bins});
  const PolygonSoA soa = PolygonSoA::build(counties);

  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    Timer timer;
    const ZonalResult r = pipeline.run(raster, counties, soa);
    const double s = timer.seconds();
    if (i == 0 || s < best) best = s;
    std::printf("  rep %d: %.3f s (steps %.3f s)\n", i, s,
                r.times.step_total());
  }
  std::printf("ZH_OBS_BENCH_SECONDS=%.6f\n", best);

  bench::write_bench_report(
      "BENCH_obs_overhead.json", "bench_obs_overhead",
      "conus table-1 raster 0, dormant pipeline",
      {{"scale", std::to_string(scale)},
       {"zones", std::to_string(zones)},
       {"bins", std::to_string(bins)},
       {"reps", std::to_string(reps)}},
      nullptr, nullptr, {{"obs_dormant_wall", best}});
  return 0;
}
