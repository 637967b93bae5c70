// Table 2 reproduction: per-step and end-to-end runtimes on the Fermi
// (Quadro 6000) and Kepler (GTX Titan) devices.
//
// Method (see DESIGN.md / EXPERIMENTS.md): the emulation runs the full
// Steps 0-4 pipeline over the six Table-1 CONUS rasters at scale S and
// measures exact work counters. Counters that scale with cell count are
// multiplied by S^2 to recover the paper's full-scale workload; the
// analytic PerfModel then projects per-step seconds onto the paper's
// GPUs. Expected shape: Step 4 dominant, Step 1 second, Steps 2-3
// negligible, GTX Titan ~2x faster end-to-end (Step 4 2.6x, Step 1 1.6x,
// Step 0 ~2x).
#include <cstdio>

#include "bench_util.hpp"
#include "bqtree/compressed_raster.hpp"
#include "core/perf_model.hpp"
#include "core/pipeline.hpp"

int main() {
  using namespace zh;
  const int scale = bench::env_int("ZH_SCALE", 30);
  const int zones = bench::env_int("ZH_ZONES", 3109);  // US county count
  // The measured emulation runs at 1000 bins to keep the per-tile
  // histogram tables modest on the host; the full-scale projection below
  // always charges Step 3 at the paper's 5000 bins.
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 1000));
  const std::int64_t tile = conus::tile_size_cells(scale);

  std::printf("building CONUS workload: S=%d (%d cells/deg), %d zones, "
              "%u bins, %lld-cell tiles...\n",
              scale, 3600 / scale, zones, bins,
              static_cast<long long>(tile));
  Timer setup;
  bench::ConusWorkload w = bench::build_conus(scale, zones);
  std::printf("  %zu rasters, %s cells, %zu zones, %s polygon vertices "
              "(%.1fs)\n",
              w.rasters.size(),
              bench::with_commas(static_cast<unsigned long long>(
                  conus::total_cells(scale))).c_str(),
              w.counties.size(),
              bench::with_commas(w.counties.vertex_count()).c_str(),
              setup.seconds());

  Device device(DeviceProfile::host());
  // The paper's Fig.-5 kernel: PerfModel's Step-4 rate is calibrated in
  // brute edge tests.
  const ZonalPipeline pipeline(device,
                               {.tile_size = tile, .bins = bins,
                                .refine_strategy = RefineStrategy::kBrute});
  const PolygonSoA soa = PolygonSoA::build(w.counties);

  // Run Steps 0-4 per raster (as the paper does per file), summing times
  // and work. Step 0 comes from BQ-Tree-compressed inputs.
  StepTimes measured;
  WorkCounters work;
  HistogramSet per_polygon(w.counties.size(), bins);
  for (std::size_t i = 0; i < w.rasters.size(); ++i) {
    Timer enc;
    const BqCompressedRaster compressed =
        BqCompressedRaster::encode(w.rasters[i], tile);
    std::printf("  raster %zu: encoded %5.1f%% of raw in %.1fs, ",
                i + 1, 100.0 * compressed.compression_ratio(),
                enc.seconds());
    const ZonalResult r = pipeline.run(compressed, w.counties);
    std::printf("pipeline %.1fs\n", r.times.step_total());
    measured += r.times;
    work += r.work;
    per_polygon.add(r.per_polygon);
  }

  bench::print_header("Measured emulation times at scale S=" +
                      std::to_string(scale) + " (host CPU)");
  for (std::size_t s = 0; s < StepTimes::kSteps; ++s) {
    std::printf("  %-52s %8.2f s\n", StepTimes::step_name(s).c_str(),
                measured.seconds[s]);
  }
  std::printf("  %-52s %8.2f s\n", "Runtimes of steps",
              measured.step_total());
  std::printf("  cells in polygons: %s of %s\n",
              bench::with_commas(work.cells_in_polygons).c_str(),
              bench::with_commas(work.cells_total).c_str());

  // Scale work counters to the paper's full-resolution dataset. Pair
  // counts and bin-adds are scale-invariant (tile *boxes* are identical
  // at every S); per-cell quantities scale with S^2.
  const auto s2 = static_cast<std::uint64_t>(scale) * scale;
  WorkCounters full = work;
  full.cells_total *= s2;
  full.pip_cell_tests *= s2;
  full.pip_edge_tests *= s2;
  full.cells_in_polygons *= s2;
  full.values_clamped *= s2;
  full.raw_bytes *= s2;
  full.compressed_bytes *= s2;  // ratio approximately scale-free
  // Step 3 is charged at the paper's 5000 bins regardless of ZH_BINS.
  full.aggregate_bin_adds = full.pairs_inside * 5000;

  bench::print_header("Full-scale work counters (exact)");
  std::printf("  cells:            %s\n",
              bench::with_commas(full.cells_total).c_str());
  std::printf("  candidate pairs:  %s\n",
              bench::with_commas(full.candidate_pairs).c_str());
  std::printf("  inside pairs:     %s\n",
              bench::with_commas(full.pairs_inside).c_str());
  std::printf("  intersect pairs:  %s\n",
              bench::with_commas(full.pairs_intersect).c_str());
  std::printf("  PIP cell tests:   %s\n",
              bench::with_commas(full.pip_cell_tests).c_str());
  std::printf("  PIP edge tests:   %s\n",
              bench::with_commas(full.pip_edge_tests).c_str());

  const PerfModel model;
  const StepTimes quadro =
      model.project(full, DeviceProfile::quadro6000());
  const StepTimes titan = model.project(full, DeviceProfile::gtx_titan());

  // Table-2 reference values, reconstructed from the legible constraints
  // of the paper's text: end-to-end 46 s on GTX Titan, ~2x on Quadro,
  // Step-4/1/0 speedups 2.6x/1.6x/2.0x, Step 0 ~20% of end-to-end,
  // Steps 2-3 "insignificant".
  const double paper_quadro[5] = {18.0, 12.8, 0.7, 0.6, 59.8};
  const double paper_titan[5] = {9.0, 8.0, 0.7, 0.3, 23.0};

  bench::print_header(
      "Table 2 -- projected full-scale per-step runtimes (seconds)");
  std::printf("%-52s %9s %9s | %7s %7s\n", "", "Quadro", "GTXTitan",
              "paper-Q", "paper-T");
  for (std::size_t s = 0; s < StepTimes::kSteps; ++s) {
    std::printf("%-52s %9.1f %9.1f | %7.1f %7.1f\n",
                StepTimes::step_name(s).c_str(), quadro.seconds[s],
                titan.seconds[s], paper_quadro[s], paper_titan[s]);
  }
  double pq = 0;
  double pt = 0;
  for (int s = 0; s < 5; ++s) {
    pq += paper_quadro[s];
    pt += paper_titan[s];
  }
  std::printf("%-52s %9.1f %9.1f | %7.1f %7.1f\n", "Runtimes of steps",
              quadro.step_total(), titan.step_total(), pq, pt);
  std::printf("%-52s %9.1f %9.1f | %7.1f %7.1f\n",
              "Wall-clock end-to-end runtimes", quadro.end_to_end(),
              titan.end_to_end(), 90.0, 46.0);

  bench::print_header("Shape checks");
  auto check = [](const char* what, bool ok) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  };
  check("Step 4 dominates on both devices",
        quadro.seconds[4] > quadro.seconds[1] &&
            titan.seconds[4] > titan.seconds[1]);
  check("Step 1 is second on both devices",
        quadro.seconds[1] > quadro.seconds[2] &&
            quadro.seconds[1] > quadro.seconds[3] &&
            titan.seconds[1] > titan.seconds[2] &&
            titan.seconds[1] > titan.seconds[3]);
  const double e2e_ratio = quadro.end_to_end() / titan.end_to_end();
  std::printf("  end-to-end Quadro/Titan ratio: %.2fx (paper ~2x)\n",
              e2e_ratio);
  check("Kepler roughly halves the Fermi runtime",
        e2e_ratio > 1.5 && e2e_ratio < 2.6);
  std::printf("  step-4 speedup: %.2fx (paper 2.6x), step-1: %.2fx "
              "(paper 1.6x), step-0: %.2fx (paper ~2x)\n",
              quadro.seconds[4] / titan.seconds[4],
              quadro.seconds[1] / titan.seconds[1],
              quadro.seconds[0] / titan.seconds[0]);

  // Machine-readable baseline of this run (measured emulation times +
  // exact full-scale counters), same schema as `zhist --metrics`.
  std::vector<std::pair<std::string, std::string>> config{
      {"scale", std::to_string(scale)},
      {"zones", std::to_string(zones)},
      {"bins", std::to_string(bins)},
      {"tile", std::to_string(tile)},
  };
  bench::write_bench_report(
      "BENCH_table2.json", "bench_table2_steps",
      "six Table-1 CONUS rasters at S=" + std::to_string(scale),
      std::move(config), &measured, &full);
  return 0;
}
