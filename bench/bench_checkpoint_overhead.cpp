// Checkpoint journal overhead gate.
//
// Runs the fault-tolerant cluster driver on a Table-1 CONUS raster twice
// -- without a checkpoint sink, then journaling every accepted partition
// (fsync per record, the strictest durability setting) -- and prints
// best-of-N wall times as machine-readable lines:
//
//   ZH_CHECKPOINT_BENCH_BASE_SECONDS=<seconds>
//   ZH_CHECKPOINT_BENCH_JOURNAL_SECONDS=<seconds>
//   ZH_CHECKPOINT_BENCH_OVERHEAD_PCT=<percent>
//
// Exits nonzero when the journaled run is more than ZH_CHECKPOINT_TOL_PCT
// percent slower (default 3) AND the absolute gap exceeds
// ZH_CHECKPOINT_TOL_ABS_MS milliseconds (default 5; min-of-reps on a
// small workload still jitters by a few ms, and a sub-noise "regression"
// on a tiny base time is not a regression).
//
// Knobs: ZH_SCALE (default 60), ZH_ZONES (128), ZH_BINS (256),
// ZH_RANKS (3), ZH_REPS (5).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.hpp"
#include "core/cluster_driver.hpp"
#include "io/journal.hpp"

int main() {
  using namespace zh;
  const int scale = bench::env_int("ZH_SCALE", 60);
  const int zones = bench::env_int("ZH_ZONES", 128);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 256));
  const std::size_t ranks =
      static_cast<std::size_t>(std::max(1, bench::env_int("ZH_RANKS", 3)));
  const int reps = std::max(1, bench::env_int("ZH_REPS", 5));
  const double tol_pct =
      static_cast<double>(bench::env_int("ZH_CHECKPOINT_TOL_PCT", 3));
  const double tol_abs_ms =
      static_cast<double>(bench::env_int("ZH_CHECKPOINT_TOL_ABS_MS", 5));

  const conus::RasterSpec spec = conus::table1()[0];
  std::vector<DemRaster> rasters;
  rasters.push_back(conus::generate_raster(spec, scale));
  const std::vector<std::pair<int, int>> schemas = {
      {spec.part_rows, spec.part_cols}};
  const PolygonSet counties = conus::generate_county_layer(zones, 7);

  ClusterRunConfig cfg;
  cfg.ranks = ranks;
  cfg.zonal = {.tile_size = conus::tile_size_cells(scale), .bins = bins};
  cfg.fault_tolerance.worker_timeout_ms = 10000;

  const RunManifest manifest =
      make_manifest(rasters, schemas, counties, cfg);
  std::printf("checkpoint-overhead workload: %lldx%lld raster, %d zones, "
              "%u bins, %zu ranks, %u partitions, %d reps\n",
              static_cast<long long>(rasters[0].rows()),
              static_cast<long long>(rasters[0].cols()), zones, bins, ranks,
              manifest.partition_count, reps);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "zh_bench_checkpoint";
  std::filesystem::create_directories(dir);
  const std::string jpath = (dir / "run.journal").string();

  // Interleave base/journal reps so drift (thermal, cache warmup) hits
  // both arms equally instead of biasing whichever runs second.
  double base_s = 0.0;
  double journal_s = 0.0;
  WorkCounters journal_work;
  for (int i = 0; i < reps; ++i) {
    {
      Timer timer;
      ClusterRunConfig run_cfg = cfg;
      const ClusterRunResult r =
          run_cluster_zonal(rasters, schemas, counties, run_cfg);
      const double s = timer.seconds();
      if (i == 0 || s < base_s) base_s = s;
      std::printf("  rep %d base:    %.3f s (%llu cells)\n", i, s,
                  static_cast<unsigned long long>(r.work.cells_total));
    }
    {
      Timer timer;
      ClusterRunConfig run_cfg = cfg;
      JournalWriter journal = JournalWriter::create(jpath, manifest);
      run_cfg.checkpoint.sink = &journal;
      const ClusterRunResult r =
          run_cluster_zonal(rasters, schemas, counties, run_cfg);
      journal.flush();
      const double s = timer.seconds();
      if (i == 0 || s < journal_s) {
        journal_s = s;
        journal_work = r.work;
      }
      std::printf("  rep %d journal: %.3f s (%llu records)\n", i, s,
                  static_cast<unsigned long long>(journal.records_written()));
    }
  }
  std::filesystem::remove_all(dir);

  const double pct = (journal_s - base_s) / base_s * 100.0;
  const double abs_ms = (journal_s - base_s) * 1e3;
  std::printf("ZH_CHECKPOINT_BENCH_BASE_SECONDS=%.6f\n", base_s);
  std::printf("ZH_CHECKPOINT_BENCH_JOURNAL_SECONDS=%.6f\n", journal_s);
  std::printf("ZH_CHECKPOINT_BENCH_OVERHEAD_PCT=%.2f\n", pct);

  bench::write_bench_report(
      "BENCH_checkpoint_overhead.json", "bench_checkpoint_overhead",
      "conus table-1 raster 0 + journal-per-partition",
      {{"scale", std::to_string(scale)},
       {"zones", std::to_string(zones)},
       {"bins", std::to_string(bins)},
       {"ranks", std::to_string(ranks)},
       {"partitions", std::to_string(manifest.partition_count)},
       {"reps", std::to_string(reps)},
       {"base_seconds", std::to_string(base_s)},
       {"journal_seconds", std::to_string(journal_s)},
       {"overhead_pct", std::to_string(pct)},
       {"tolerance_pct", std::to_string(tol_pct)}},
      nullptr, &journal_work,
      {{"checkpoint_base", base_s}, {"checkpoint_journal", journal_s}});

  if (pct > tol_pct && abs_ms > tol_abs_ms) {
    std::printf("FAIL: journaling overhead %.2f%% (%.1f ms) exceeds "
                "%.0f%% tolerance\n",
                pct, abs_ms, tol_pct);
    return 1;
  }
  std::printf("OK: journaling overhead %.2f%% (%.1f ms) within %.0f%% "
              "tolerance (or under %.0f ms absolute slack)\n",
              pct, abs_ms, tol_pct, tol_abs_ms);
  return 0;
}
