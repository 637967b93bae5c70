#include "core/hybrid.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/perf_model.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

/// Split the intersect groups at a cumulative-cost point: groups
/// [0, split) go to the primary device, the rest to the secondary.
/// Group-granular (a polygon's row is owned by exactly one device, so
/// the non-atomic Fig.-5 kernel stays valid on both sides).
std::size_t split_point(const PolygonTileGroups& groups,
                        const PolygonSoA& soa, const TilingScheme& tiling,
                        double fraction) {
  std::vector<double> cost(groups.group_count(), 0.0);
  double total = 0.0;
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const auto [p_f, p_t] = soa.vertex_range(groups.pid_v[g]);
    double cells = 0.0;
    for (std::uint64_t k = 0; k < groups.num_v[g]; ++k) {
      cells += static_cast<double>(
          tiling.tile_window(groups.tid_v[groups.pos_v[g] + k])
              .cell_count());
    }
    cost[g] = cells * static_cast<double>(p_t - p_f);
    total += cost[g];
  }
  const double target = total * std::clamp(fraction, 0.0, 1.0);
  double acc = 0.0;
  std::size_t split = 0;
  while (split < cost.size() && acc + cost[split] <= target) {
    acc += cost[split];
    ++split;
  }
  return split;
}

/// The dispatch arrays for a contiguous subrange of groups (offsets
/// rebased so tid_v stays shared-shaped).
PolygonTileGroups slice_groups(const PolygonTileGroups& g,
                               std::size_t begin, std::size_t end) {
  PolygonTileGroups out;
  if (begin >= end) return out;
  const std::uint64_t base = g.pos_v[begin];
  out.pid_v.assign(g.pid_v.begin() + begin, g.pid_v.begin() + end);
  out.num_v.assign(g.num_v.begin() + begin, g.num_v.begin() + end);
  out.pos_v.resize(end - begin);
  for (std::size_t i = 0; i < out.pos_v.size(); ++i) {
    out.pos_v[i] = g.pos_v[begin + i] - base;
  }
  const std::uint32_t tid_end =
      end < g.group_count() ? g.pos_v[end]
                            : static_cast<std::uint32_t>(g.tid_v.size());
  out.tid_v.assign(g.tid_v.begin() + base, g.tid_v.begin() + tid_end);
  return out;
}

}  // namespace

HybridResult run_hybrid(Device& primary, Device& secondary,
                        const DemRaster& raster,
                        const PolygonSet& polygons,
                        const HybridConfig& config) {
  const ZonalConfig& zc = config.zonal;
  ZH_REQUIRE(zc.tile_size >= 1, "tile size must be positive");
  ZH_REQUIRE(zc.bins >= 1, "bin count must be positive");
  ZH_TRACE_SPAN("hybrid.run", "pipeline");

  const TilingScheme tiling(raster.rows(), raster.cols(), zc.tile_size);
  const PolygonSoA soa = PolygonSoA::build(polygons);

  // Steps 1-3 on the primary device through the executor; the intersect
  // groups are held back for the split Step 4 below.
  ZonalPlan plan = make_plan(polygons, tiling, raster.transform());
  const PolygonTileGroups intersect =
      std::exchange(plan.pairing.intersect, PolygonTileGroups{});
  ZonalResult steps;
  execute_plan(primary, plan, raster, soa, zc, steps);
  HybridResult result;
  result.per_polygon = std::move(steps.per_polygon);
  result.times = steps.times;
  result.work = steps.work;
  result.work.pairs_intersect = intersect.pair_count();

  // Step 4: split by modeled device speeds unless a fraction is forced.
  double fraction = config.primary_fraction;
  if (fraction < 0.0) {
    const double sp =
        PerfModel::device_step_scale(primary.profile(), 4);
    const double ss =
        PerfModel::device_step_scale(secondary.profile(), 4);
    fraction = sp / (sp + ss);
  }
  result.primary_fraction = std::clamp(fraction, 0.0, 1.0);
  const std::size_t split =
      split_point(intersect, soa, tiling, result.primary_fraction);
  const PolygonTileGroups head = slice_groups(intersect, 0, split);
  const PolygonTileGroups tail =
      slice_groups(intersect, split, intersect.group_count());

  // Each device refines into its own histogram set; a polygon's groups
  // live entirely on one side, so no cross-device row races exist and
  // the merge is a plain add.
  HistogramSet primary_hist(polygons.size(), zc.bins);
  HistogramSet secondary_hist(polygons.size(), zc.bins);
  RefineCounters rc_primary;
  RefineCounters rc_secondary;
  Timer timer;
  {
    // The secondary device runs on its own thread, concurrently with
    // the primary (CP.25: joined before use of the results).
    Timer secondary_timer;
    double secondary_s = 0.0;
    std::thread secondary_thread([&] {
      ZH_TRACE_SPAN("hybrid.refine_secondary", "pipeline");
      rc_secondary = refine_boundary_tiles(
          secondary, tail, soa, raster, tiling, secondary_hist,
          zc.refine_granularity, zc.refine_strategy);
      secondary_s = secondary_timer.seconds();
    });
    Timer primary_timer;
    {
      ZH_TRACE_SPAN("hybrid.refine_primary", "pipeline");
      rc_primary = refine_boundary_tiles(
          primary, head, soa, raster, tiling, primary_hist,
          zc.refine_granularity, zc.refine_strategy);
    }
    result.primary_seconds = primary_timer.seconds();
    secondary_thread.join();
    result.secondary_seconds = secondary_s;
  }
  result.times.seconds[4] = timer.seconds();

  Timer merge_timer;
  result.per_polygon.add(primary_hist);
  result.per_polygon.add(secondary_hist);
  result.times.overhead.merge = merge_timer.seconds();
  result.work.pip_cell_tests =
      rc_primary.cell_tests + rc_secondary.cell_tests;
  result.work.pip_edge_tests =
      rc_primary.edge_tests + rc_secondary.edge_tests;
  result.work.pip_rows_scanned =
      rc_primary.rows_scanned + rc_secondary.rows_scanned;
  result.work.pip_run_cells =
      rc_primary.run_cells + rc_secondary.run_cells;
  result.work.cells_in_polygons = result.per_polygon.total();
  return result;
}

}  // namespace zh
