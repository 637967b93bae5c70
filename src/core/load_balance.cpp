#include "core/load_balance.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/step2_pairing.hpp"
#include "grid/tiling.hpp"

namespace zh {

namespace {

/// Cost weights of estimate_partition_costs: per raster cell (Steps 0-1)
/// and per PIP edge evaluation (Step 4).
constexpr double kCellWeight = 1.0;
constexpr double kPipEdgeWeight = 0.09;

/// Both LPT and the imbalance diagnostic assume costs behave like work:
/// a NaN cost poisons every load comparison (min_element and
/// max_element are unordered under NaN), and a negative cost can drive
/// a rank's load below zero so it soaks up every remaining partition.
void require_valid_costs(const std::vector<double>& costs) {
  for (std::size_t i = 0; i < costs.size(); ++i) {
    ZH_REQUIRE(std::isfinite(costs[i]) && costs[i] >= 0.0,
               "partition cost ", i, " must be finite and >= 0, got ",
               costs[i]);
  }
}

}  // namespace

std::vector<double> estimate_partition_costs(
    const std::vector<RasterPartition>& parts,
    const std::vector<GeoTransform>& raster_transforms,
    std::int64_t tile_size, const PolygonSet& polygons) {
  std::vector<double> costs(parts.size(), 0.0);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const RasterPartition& part = parts[i];
    ZH_REQUIRE(part.raster_index < raster_transforms.size(),
               "partition refers to unknown raster");
    const GeoTransform transform =
        raster_transforms[part.raster_index].for_window(part.window.row0,
                                                        part.window.col0);
    const TilingScheme tiling(part.window.rows, part.window.cols,
                              tile_size);
    const TilePolygonPairs pairs =
        pair_tiles_with_polygons(polygons, tiling, transform);

    // Step-4 edge tests: every cell of an intersecting tile is tested
    // against every vertex of the paired polygon.
    double edge_tests = 0.0;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      if (pairs.relations[k] != TileRelation::kIntersect) continue;
      const CellWindow w = tiling.tile_window(pairs.tile_ids[k]);
      edge_tests +=
          static_cast<double>(w.cell_count()) *
          static_cast<double>(polygons[pairs.polygon_ids[k]].vertex_count());
    }
    costs[i] = kCellWeight * static_cast<double>(part.window.cell_count()) +
               kPipEdgeWeight * edge_tests;
  }
  return costs;
}

void assign_least_loaded(std::vector<RasterPartition>& parts,
                         std::size_t ranks,
                         const std::vector<double>& costs) {
  ZH_REQUIRE(ranks >= 1, "need at least one rank");
  ZH_REQUIRE(costs.size() == parts.size(),
             "one cost per partition required");
  require_valid_costs(costs);
  std::vector<std::size_t> order(parts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return costs[a] > costs[b];
  });
  std::vector<double> load(ranks, 0.0);
  for (const std::size_t i : order) {
    const auto lightest = static_cast<RankId>(std::distance(
        load.begin(), std::min_element(load.begin(), load.end())));
    parts[i].owner = lightest;
    load[lightest] += costs[i];
  }
}

double assignment_imbalance(const std::vector<RasterPartition>& parts,
                            std::size_t ranks,
                            const std::vector<double>& costs) {
  ZH_REQUIRE(ranks >= 1, "need at least one rank");
  ZH_REQUIRE(costs.size() == parts.size(),
             "one cost per partition required");
  require_valid_costs(costs);
  std::vector<double> load(ranks, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    ZH_REQUIRE(parts[i].owner < ranks, "partition ", i, " owned by rank ",
               parts[i].owner, " but only ", ranks, " ranks exist");
    load[parts[i].owner] += costs[i];
    total += costs[i];
  }
  // All-zero costs (empty coverage) are perfectly balanced by
  // definition; without the guard 0/0 would return NaN. With more ranks
  // than partitions the mean still divides by `ranks`, so the minimum
  // achievable ratio is ranks / partitions -- a true statement about
  // idle ranks, not an artifact.
  const double mean = total / static_cast<double>(ranks);
  const double worst = *std::max_element(load.begin(), load.end());
  return mean > 0.0 ? worst / mean : 1.0;
}

}  // namespace zh
