// Partition-assignment ablation (Sec. IV.C discussion + future work):
// round-robin assignment leaves cluster nodes unevenly loaded because
// edge-of-coverage partitions do much less Step-4 work; cost-model LPT
// assignment flattens the Fig.-6 tail. Reports estimated-load imbalance
// and projected 16-node runtimes for both strategies.
#include <cstdio>

#include "bench_util.hpp"
#include "core/cluster_driver.hpp"
#include "core/load_balance.hpp"
#include "core/perf_model.hpp"

int main() {
  using namespace zh;
  const int scale = bench::env_int("ZH_SCALE", 60);
  const int zones = bench::env_int("ZH_ZONES", 1500);
  const BinIndex bins =
      static_cast<BinIndex>(bench::env_int("ZH_BINS", 500));
  const std::int64_t tile = conus::tile_size_cells(scale);

  std::printf("building CONUS workload: S=%d, %d zones...\n", scale,
              zones);
  const bench::ConusWorkload w = bench::build_conus(scale, zones);

  // Partition list + exact cost estimates (resolution-independent).
  std::vector<RasterPartition> parts;
  std::vector<GeoTransform> transforms;
  for (std::size_t i = 0; i < w.rasters.size(); ++i) {
    transforms.push_back(w.rasters[i].transform());
    for (const CellWindow& win :
         grid_partition(w.rasters[i].rows(), w.rasters[i].cols(),
                        w.schemas[i].first, w.schemas[i].second, tile)) {
      parts.push_back({static_cast<std::uint32_t>(i), win, 0});
    }
  }
  const std::vector<double> costs =
      estimate_partition_costs(parts, transforms, tile, w.counties);

  double cmin = costs[0];
  double cmax = costs[0];
  for (const double c : costs) {
    cmin = std::min(cmin, c);
    cmax = std::max(cmax, c);
  }
  std::printf("36 partitions; estimated cost spread %.1fx "
              "(min %.2e, max %.2e)\n",
              cmax / cmin, cmin, cmax);

  bench::print_header(
      "Estimated-load imbalance (max rank load / mean rank load)");
  std::printf("%7s %14s %14s\n", "nodes", "round-robin", "LPT");
  bench::print_rule();
  for (const std::size_t ranks : {2u, 4u, 8u, 16u}) {
    auto rr = parts;
    assign_round_robin(rr, ranks);
    auto lpt = parts;
    assign_least_loaded(lpt, ranks, costs);
    std::printf("%7zu %14.3f %14.3f\n", ranks,
                assignment_imbalance(rr, ranks, costs),
                assignment_imbalance(lpt, ranks, costs));
  }

  // End-to-end check: run both assignments through the real cluster
  // driver at 16 ranks and project per-rank K20 times from measured work.
  bench::print_header("Projected 16-node runtime (K20 model)");
  const auto s2 = static_cast<std::uint64_t>(scale) * scale;
  const PerfModel model;
  for (const PartitionAssignment assignment :
       {PartitionAssignment::kRoundRobin,
        PartitionAssignment::kCostBalanced}) {
    ClusterRunConfig cfg;
    cfg.ranks = 16;
    // Brute Step 4: the projection's Step-4 rate counts brute edge tests.
    cfg.zonal = {.tile_size = tile, .bins = bins,
                 .refine_strategy = RefineStrategy::kBrute};
    cfg.assignment = assignment;
    const ClusterRunResult r =
        run_cluster_zonal(w.rasters, w.schemas, w.counties, cfg);
    double slowest = 0.0;
    for (const WorkCounters& rank_work : r.per_rank_work) {
      WorkCounters full = rank_work;
      full.cells_total *= s2;
      full.pip_cell_tests *= s2;
      full.pip_edge_tests *= s2;
      full.raw_bytes *= s2;
      const StepTimes t = model.project(full, DeviceProfile::k20());
      slowest = std::max(slowest, t.end_to_end());
    }
    std::printf("  %-14s %8.1f s\n",
                assignment == PartitionAssignment::kRoundRobin
                    ? "round-robin"
                    : "LPT",
                slowest);
  }
  std::printf("\nLPT flattens the Fig.-6 tail: with 36 partitions on 16\n"
              "nodes, round-robin strands heavy interior partitions "
              "together.\n");
  return 0;
}
