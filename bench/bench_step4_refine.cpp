// Step-4 refinement-strategy bench: the brute-force Fig.-5 oracle vs the
// scanline + y-banded-edge-index path on a dense-edge county fixture
// (deep midpoint displacement -> hundreds of vertices per zone, the
// regime where per-cell edge loops dominate Step 4).
//
// This bench is a gate, not just a report: it exits nonzero if the two
// strategies' histograms differ, if scanline evaluates fewer than 3x
// fewer crossing predicates than brute, or if scanline is slower than
// brute on this fixture. tools/check.sh runs it in the dev stage.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/step2_pairing.hpp"
#include "core/step4_refine.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"
#include "geom/soa.hpp"

int main() {
  using namespace zh;
  const int edge = bench::env_int("ZH_EDGE", 1500);
  const int reps = bench::env_int("ZH_REPS", 3);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 500));

  const GeoTransform t(-100.0, 40.0, 1.0 / 240.0, 1.0 / 240.0);
  const DemRaster dem = generate_dem(edge, edge, t);
  CountyParams cp;
  cp.grid_x = 4;
  cp.grid_y = 3;
  cp.displace_depth = 6;  // ~2^6 segments per seed edge: dense boundaries
  cp.hole_every = 4;
  const GeoBox ext = t.extent(edge, edge);
  const PolygonSet counties = generate_counties(
      GeoBox{ext.min_x - 0.1, ext.min_y - 0.1, ext.max_x + 0.1,
             ext.max_y + 0.1},
      cp);

  const TilingScheme tiling(edge, edge, 60);
  const PolygonSoA soa = PolygonSoA::build(counties);
  const PairingResult pairs = pair_and_group(counties, tiling, t);
  std::printf("workload: %dx%d DEM, %zu zones, %s flattened vertices, "
              "%zu intersect pairs\n",
              edge, edge, counties.size(),
              bench::with_commas(soa.flattened_vertex_count()).c_str(),
              pairs.intersect.pair_count());

  Device device;
  bench::print_header("Step-4 refinement: brute vs scanline (best of "
                      + std::to_string(reps) + ")");

  struct Run {
    double seconds = 0.0;
    RefineCounters rc;
    HistogramSet hist;
  };
  auto run = [&](RefineStrategy s) {
    Run out;
    out.seconds = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      HistogramSet hist(counties.size(), bins);
      Timer timer;
      const RefineCounters rc = refine_boundary_tiles(
          device, pairs.intersect, soa, dem, tiling, hist,
          RefineGranularity::kPolygonGroup, s);
      const double sec = timer.seconds();
      if (sec < out.seconds) {
        out.seconds = sec;
        out.rc = rc;
      }
      out.hist = std::move(hist);
    }
    return out;
  };

  const Run brute = run(RefineStrategy::kBrute);
  const Run scan = run(RefineStrategy::kScanline);
  for (const auto& [label, r] :
       {std::pair<const char*, const Run&>{"brute (Fig. 5)", brute},
        std::pair<const char*, const Run&>{"scanline + edge index",
                                           scan}}) {
    std::printf("  %-24s %7.3f s   edge tests %16s   rows %12s\n", label,
                r.seconds, bench::with_commas(r.rc.edge_tests).c_str(),
                bench::with_commas(r.rc.rows_scanned).c_str());
  }

  const bool identical = brute.hist == scan.hist;
  const double edge_ratio =
      scan.rc.edge_tests > 0
          ? static_cast<double>(brute.rc.edge_tests) /
                static_cast<double>(scan.rc.edge_tests)
          : 0.0;
  const double speedup =
      scan.seconds > 0.0 ? brute.seconds / scan.seconds : 0.0;
  std::printf("  identical histograms: %s   edge-test ratio %.1fx   "
              "speedup %.2fx\n",
              identical ? "yes" : "NO", edge_ratio, speedup);

  bench::write_bench_report(
      "BENCH_step4_refine.json", "bench_step4_refine",
      std::to_string(edge) + "x" + std::to_string(edge) + " dem, " +
          std::to_string(counties.size()) + " dense-edge zones",
      {{"tile_size", "60"},
       {"bins", std::to_string(bins)},
       {"brute_seconds", std::to_string(brute.seconds)},
       {"scanline_seconds", std::to_string(scan.seconds)},
       {"brute_edge_tests", std::to_string(brute.rc.edge_tests)},
       {"scanline_edge_tests", std::to_string(scan.rc.edge_tests)},
       {"edge_test_ratio", std::to_string(edge_ratio)},
       {"speedup", std::to_string(speedup)},
       {"identical", identical ? "true" : "false"}},
      nullptr, nullptr,
      {{"refine_brute", brute.seconds}, {"refine_scanline", scan.seconds}});

  if (!identical) {
    std::printf("  ERROR: strategies disagree!\n");
    return 1;
  }
  if (edge_ratio < 3.0) {
    std::printf("  ERROR: edge-test ratio %.2fx below the 3x gate\n",
                edge_ratio);
    return 1;
  }
  if (scan.seconds > brute.seconds) {
    std::printf("  ERROR: scanline slower than brute on the dense-edge "
                "fixture\n");
    return 1;
  }
  return 0;
}
