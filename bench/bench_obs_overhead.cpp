// Observability kill-switch overhead check.
//
// Runs the Table-2 pipeline workload (one CONUS raster) with all
// instrumentation *disabled at runtime* -- the state every production
// run is in unless --trace is passed -- and prints the time of one
// pipeline run as a machine-readable line:
//
//   ZH_OBS_BENCH_SECONDS=<seconds>
//
// One rep repeats the pipeline run until at least kMinRepSeconds have
// passed and takes the mean; the line reports the best rep. One run of
// the default workload takes about 7 ms on a 4-vCPU host, too short for
// a single timing to resolve a 2% difference.
//
// tools/check.sh runs this binary from both the regular (ZH_OBS=ON)
// build and the obs-off preset (ZH_OBS=OFF, macros compiled to no-ops),
// alternating the two, and asserts the medians stay within a small
// tolerance: the cost of a dormant span site must stay in the noise.
// The report it writes is the committed BENCH_obs_overhead.json baseline
// that the zh_perf gate self-compares.
//
// Knobs: ZH_SCALE (default 20), ZH_ZONES (256), ZH_BINS (256),
// ZH_REPS (10).
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "core/pipeline.hpp"

int main() {
  using namespace zh;
  const int scale = bench::env_int("ZH_SCALE", 20);
  const int zones = bench::env_int("ZH_ZONES", 256);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 256));
  const int reps = std::max(1, bench::env_int("ZH_REPS", 10));
  const std::int64_t tile = conus::tile_size_cells(scale);

  const conus::RasterSpec spec = conus::table1()[0];
  const DemRaster raster = conus::generate_raster(spec, scale);
  const PolygonSet counties = conus::generate_county_layer(zones, 7);
  std::printf("obs-overhead workload: %lldx%lld raster, %d zones, %u "
              "bins, %d reps\n",
              static_cast<long long>(raster.rows()),
              static_cast<long long>(raster.cols()), zones, bins, reps);

  Device device;
  const ZonalPipeline pipeline(device, {.tile_size = tile, .bins = bins});
  const PolygonSoA soa = PolygonSoA::build(counties);

  constexpr double kMinRepSeconds = 0.05;
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    Timer timer;
    int runs = 0;
    double steps = 0.0;
    do {
      steps += pipeline.run(raster, counties, soa).times.step_total();
      ++runs;
    } while (timer.seconds() < kMinRepSeconds);
    const double s = timer.seconds() / runs;
    if (i == 0 || s < best) best = s;
    std::printf("  rep %d: %d runs, %.6f s per run (steps %.6f s)\n", i,
                runs, s, steps / runs);
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
