#include "core/pipeline.hpp"

#include <algorithm>
#include <functional>

#include "obs/obs.hpp"

namespace zh {

void append_work_counters(obs::RunReport& report, const WorkCounters& work) {
  auto add = [&](const char* name, std::uint64_t v) {
    report.counters.emplace_back(name, v);
  };
  add("cells_total", work.cells_total);
  add("tiles_total", work.tiles_total);
  add("candidate_pairs", work.candidate_pairs);
  add("pairs_inside", work.pairs_inside);
  add("pairs_intersect", work.pairs_intersect);
  add("polygon_vertices", work.polygon_vertices);
  add("aggregate_bin_adds", work.aggregate_bin_adds);
  add("pip_cell_tests", work.pip_cell_tests);
  add("pip_edge_tests", work.pip_edge_tests);
  add("pip_rows_scanned", work.pip_rows_scanned);
  add("pip_run_cells", work.pip_run_cells);
  add("cells_in_polygons", work.cells_in_polygons);
  add("values_clamped", work.values_clamped);
  add("compressed_bytes", work.compressed_bytes);
  add("raw_bytes", work.raw_bytes);
}

WorkCounters& WorkCounters::operator+=(const WorkCounters& o) {
  cells_total += o.cells_total;
  tiles_total += o.tiles_total;
  candidate_pairs += o.candidate_pairs;
  pairs_inside += o.pairs_inside;
  pairs_intersect += o.pairs_intersect;
  polygon_vertices = std::max(polygon_vertices, o.polygon_vertices);
  aggregate_bin_adds += o.aggregate_bin_adds;
  pip_cell_tests += o.pip_cell_tests;
  pip_edge_tests += o.pip_edge_tests;
  pip_rows_scanned += o.pip_rows_scanned;
  pip_run_cells += o.pip_run_cells;
  cells_in_polygons += o.cells_in_polygons;
  values_clamped += o.values_clamped;
  compressed_bytes += o.compressed_bytes;
  raw_bytes += o.raw_bytes;
  return *this;
}

ZonalPlan make_plan(const PolygonSet& polygons, const TilingScheme& tiling,
                    const GeoTransform& transform) {
  Timer timer;
  ZonalPlan plan;
  plan.tiling = tiling;
  plan.pairing = pair_and_group(polygons, tiling, transform);
  plan.zones = polygons.size();
  plan.zone_vertices = polygons.vertex_count();
  // The zone-row kernel increments unsplit zone rows without atomics,
  // which is safe only if each zone heads one group of a class; the
  // Fig.-4 grouping emits them in strictly increasing zone order.
  for (const PolygonTileGroups* groups :
       {&plan.pairing.inside, &plan.pairing.intersect}) {
    const std::vector<PolygonId>& pids = groups->pid_v;
    ZH_ASSERT(std::adjacent_find(pids.begin(), pids.end(),
                                 std::greater_equal<>()) == pids.end(),
              "a zone heads more than one group of a class");
  }
  plan.seconds = timer.seconds();
  return plan;
}

void execute_plan(Device& device, const ZonalPlan& plan,
                  const DemRaster& raster, const PolygonSoA& soa,
                  const ZonalConfig& config, ZonalResult& result) {
  ZH_REQUIRE(soa.polygon_count() == plan.zones,
             "SoA does not match the plan's zone layer");
  const TilingScheme& tiling = plan.tiling;
  const PairingResult& pairing = plan.pairing;
  result.per_polygon = HistogramSet(plan.zones, config.bins);
  result.times.seconds[2] = plan.seconds;
  WorkCounters& work = result.work;
  work.tiles_total = tiling.tile_count();
  work.polygon_vertices = plan.zone_vertices;
  work.candidate_pairs = pairing.candidate_pairs;
  work.pairs_inside = pairing.inside.pair_count();
  work.pairs_intersect = pairing.intersect.pair_count();
  work.cells_total += static_cast<std::uint64_t>(raster.cell_count());
  work.raw_bytes +=
      static_cast<std::uint64_t>(raster.cell_count()) * sizeof(CellValue);
  Timer timer;

  // Steps 1 and 3 in one pass, timed as Step 1: the inside tiles' cells
  // count straight into the zone rows, so the paper's per-tile table is
  // never built and Step 3 reads 0. aggregate_bin_adds still carries the
  // paper's Step-3 work, which the performance model charges.
  const ZoneRowTally inside = count_inside_tiles(
      device, raster, tiling, pairing.inside, result.per_polygon);
  result.times.seconds[1] += timer.seconds();
  work.cells_in_polygons += inside.counted;
  work.values_clamped += inside.clamped;
  work.aggregate_bin_adds +=
      static_cast<std::uint64_t>(pairing.inside.pair_count()) * config.bins;

  // Step 4: cell-in-polygon refinement on boundary tiles.
  timer.reset();
  const RefineCounters rc = refine_boundary_tiles(
      device, pairing.intersect, soa, raster, tiling, result.per_polygon,
      RefineGranularity::kPolygonGroup, config.refine_strategy);
  result.times.seconds[4] += timer.seconds();
  work.pip_cell_tests += rc.cell_tests;
  work.pip_edge_tests += rc.edge_tests;
  work.pip_rows_scanned += rc.rows_scanned;
  work.pip_run_cells += rc.run_cells;
  work.cells_in_polygons += rc.cells_counted;
  work.values_clamped += rc.values_clamped;
}

namespace {

/// The compressed-input run: plan, decode the tiles the plan touches
/// (inside and intersect) into a full-extent raster, execute.
ZonalResult run_compressed(Device& device,
                           const BqCompressedRaster& compressed,
                           const PolygonSet& polygons,
                           const ZonalConfig& config,
                           LazyCounters* counters) {
  ZH_REQUIRE(compressed.tiling().tile_size() == config.tile_size,
             "compressed raster tiling does not match pipeline tile size");
  ZH_TRACE_SPAN("pipeline.run_compressed", "pipeline");
  const TilingScheme& tiling = compressed.tiling();
  const ZonalPlan plan =
      make_plan(polygons, tiling, compressed.transform());

  // Step 0: decode only the tiles some zone touches; the rest are never
  // read. kInside marks tiles inside at least one zone.
  Timer timer;
  constexpr char kBoundary = 1;
  constexpr char kInside = 2;
  std::vector<char> needed(tiling.tile_count(), 0);
  for (const TileId t : plan.pairing.intersect.tid_v) needed[t] = kBoundary;
  for (const TileId t : plan.pairing.inside.tid_v) needed[t] = kInside;
  std::vector<TileId> decode;
  std::uint64_t inside_tiles = 0;
  std::uint64_t decoded_cells = 0;
  for (TileId t = 0; t < needed.size(); ++t) {
    if (needed[t] == 0) continue;
    decode.push_back(t);
    if (needed[t] == kInside) ++inside_tiles;
    decoded_cells +=
        static_cast<std::uint64_t>(tiling.tile_window(t).cell_count());
  }
  const DemRaster raster = compressed.decode_tiles(decode);
  const double decode_seconds = timer.seconds();

  ZonalResult result;
  execute_plan(device, plan, raster, PolygonSoA::build(polygons), config,
               result);
  result.times.seconds[0] = decode_seconds;
  result.work.compressed_bytes = compressed.compressed_bytes();
  if (counters != nullptr) {
    counters->tiles_total = tiling.tile_count();
    counters->tiles_decoded = decode.size();
    counters->tiles_histogrammed = inside_tiles;
    counters->cells_decoded = decoded_cells;
  }
  return result;
}

}  // namespace

ZonalResult ZonalPipeline::run(const DemRaster& raster,
                               const PolygonSet& polygons) const {
  const PolygonSoA soa = PolygonSoA::build(polygons);
  return run(raster, polygons, soa);
}

ZonalResult ZonalPipeline::run(const DemRaster& raster,
                               const PolygonSet& polygons,
                               const PolygonSoA& soa) const {
  ZH_TRACE_SPAN("pipeline.run", "pipeline");
  const TilingScheme tiling(raster.rows(), raster.cols(),
                            config_.tile_size);
  ZonalResult result;
  execute_plan(*device_, make_plan(polygons, tiling, raster.transform()),
               raster, soa, config_, result);
  return result;
}

ZonalResult ZonalPipeline::run(const BqCompressedRaster& compressed,
                               const PolygonSet& polygons) const {
  return run_compressed(*device_, compressed, polygons, config_, nullptr);
}

ZonalResult run_lazy(Device& device, const BqCompressedRaster& compressed,
                     const PolygonSet& polygons, const ZonalConfig& config,
                     LazyCounters* counters) {
  return run_compressed(device, compressed, polygons, config, counters);
}

}  // namespace zh
