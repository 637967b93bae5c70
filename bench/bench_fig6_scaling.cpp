// Fig. 6 reproduction: end-to-end runtime vs. number of cluster nodes.
//
// The paper runs the CONUS workload on 1..16 Titan nodes (K20 GPUs) and
// reports 60.7 s -> 7.6 s with sub-linear tail scaling caused by
// edge-tile load imbalance. Here each rank count runs the real multi-rank
// pipeline over the 36 Table-1 partitions; per-rank *work counters* feed
// the K20 performance model to produce projected node times (a 1-core
// host cannot show wall-clock scaling), and the reported cluster time is
// the max over ranks plus the modeled MPI merge -- the paper's
// measurement convention.
#include <cstdio>

#include "bench_util.hpp"
#include "core/cluster_driver.hpp"
#include "core/perf_model.hpp"

int main() {
  using namespace zh;
  const int scale = bench::env_int("ZH_SCALE", 30);
  const int zones = bench::env_int("ZH_ZONES", 3109);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 1000));
  const std::int64_t tile = conus::tile_size_cells(scale);

  std::printf("building CONUS workload: S=%d, %d zones, %u bins...\n",
              scale, zones, bins);
  const bench::ConusWorkload w = bench::build_conus(scale, zones);
  const auto s2 = static_cast<std::uint64_t>(scale) * scale;
  const PerfModel model;

  bench::print_header("Fig. 6 -- runtime vs number of nodes (K20/Titan "
                      "cluster model)");
  std::printf("%7s %12s %12s %10s %10s | %12s\n", "nodes",
              "projected(s)", "emulated(s)", "speedup", "efficiency",
              "paper(s)");
  bench::print_rule();

  // Paper's Fig. 6 series (1..16 nodes).
  const std::pair<int, double> paper[] = {
      {1, 60.7}, {2, 31.1}, {4, 16.6}, {8, 10.0}, {16, 7.6}};

  double projected_1node = 0.0;
  for (const auto& [ranks, paper_seconds] : paper) {
    ClusterRunConfig cfg;
    cfg.ranks = static_cast<std::size_t>(ranks);
    // Brute Step 4: the projection's Step-4 rate counts brute edge tests.
    cfg.zonal = {.tile_size = tile, .bins = bins,
                 .refine_strategy = RefineStrategy::kBrute};
    const ClusterRunResult r =
        run_cluster_zonal(w.rasters, w.schemas, w.counties, cfg);

    // Project each rank's full-scale work onto a K20 node; the cluster
    // time is the slowest node plus the master merge (histogram gather
    // at a nominal 5 GB/s interconnect).
    double slowest = 0.0;
    for (const WorkCounters& rank_work : r.per_rank_work) {
      WorkCounters full = rank_work;
      full.cells_total *= s2;
      full.pip_cell_tests *= s2;
      full.pip_edge_tests *= s2;
      full.raw_bytes *= s2;
      full.compressed_bytes *= s2;
      const StepTimes t = model.project(full, DeviceProfile::k20());
      slowest = std::max(slowest, t.end_to_end());
    }
    const double merge_bytes = static_cast<double>(ranks) *
                               static_cast<double>(w.counties.size()) *
                               bins * sizeof(BinCount);
    const double projected = slowest + merge_bytes / 5e9;
    if (ranks == 1) projected_1node = projected;

    std::printf("%7d %12.1f %12.1f %9.2fx %9.0f%% | %12.1f\n", ranks,
                projected, r.wall_seconds, projected_1node / projected,
                100.0 * projected_1node / (projected * ranks),
                paper_seconds);
  }

  bench::print_header("Shape checks");
  std::printf(
      "  expected: monotone decrease, near-linear to ~8 nodes, visibly\n"
      "  sub-linear by 16 nodes (edge-partition load imbalance).\n");
  return 0;
}
