#include "core/step4_refine.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/contracts.hpp"
#include "core/zone_rows.hpp"
#include "geom/edge_index.hpp"
#include "geom/pip.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

/// Mean tested-edges per (polygon, tile) pair above which kAuto picks
/// the scanline path. Below it, tiles are edge-sparse enough that the
/// per-row gather/sort plus the index build cost more than brute
/// testing the handful of edges per cell.
constexpr double kAutoEdgeDensity = 8.0;

/// Per-block tallies of the classification work (the cells counted and
/// clamped are the zone row's).
struct LocalCounters {
  std::uint64_t cell_tests = 0;
  std::uint64_t edge_tests = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t run_cells = 0;
};

/// Brute force: test every cell of tile `w` against polygon [p_f, p_t)
/// and count the inside ones into `row`. `tested_edges` is the
/// sentinel-free edge count the PiP loop actually evaluates per cell.
void refine_tile(const PolygonSoA& soa, const GeoTransform& t,
                 const CellWindow& w, std::uint32_t p_f, std::uint32_t p_t,
                 std::uint32_t tested_edges, ZoneRow& row,
                 LocalCounters& local) {
  const double* x_v = soa.x_v().data();
  const double* y_v = soa.y_v().data();
  const auto cells = static_cast<std::uint64_t>(w.cell_count());
  local.cell_tests += cells;
  local.edge_tests += cells * tested_edges;
  for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
    for (std::int64_t c = w.col0; c < w.col0 + w.cols; ++c) {
      const GeoPoint center = t.cell_center(r, c);
      if (point_in_polygon_soa_raw(x_v, y_v, p_f, p_t, center.x, center.y)) {
        row.add_run(r, c, c + 1);
      }
    }
  }
}

/// Scanline: classify tile `w` against polygon `pid` row by row and count
/// its inside runs into `row`. Each row gathers only the banded edges
/// crossing its cell-center y, computes their sorted x-intercepts once,
/// and walks the row as inside/outside runs. Parity matches the brute
/// path bit-for-bit: a cell is inside iff the count of intercepts > px
/// is odd, the scanline y is the one the brute path tests, and the
/// intercepts come from scanline_crossing, the function the brute path
/// calls.
void refine_tile_scanline(const PolygonSoA& soa, const GeoTransform& t,
                          const EdgeIndex& index, const CellWindow& w,
                          PolygonId pid, ZoneRow& row, LocalCounters& local,
                          std::vector<double>& xints) {
  const double* x_v = soa.x_v().data();
  const double* y_v = soa.y_v().data();
  for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
    ++local.rows_scanned;
    local.cell_tests += static_cast<std::uint64_t>(w.cols);
    local.run_cells += static_cast<std::uint64_t>(w.cols);
    const std::span<const std::uint32_t> band = index.row_edges(pid, r);
    local.edge_tests += band.size();
    if (band.empty()) continue;  // zero crossings: the whole row is outside

    const double py = t.cell_center(r, w.col0).y;
    xints.clear();
    for (const std::uint32_t j : band) {
      // The band holds exactly the edges that cross this scanline.
      xints.push_back(
          scanline_crossing(x_v[j], y_v[j], x_v[j + 1], y_v[j + 1], py)
              .value());
    }
    std::sort(xints.begin(), xints.end());
    const std::size_t m = xints.size();

    // Cursor sweep: idx = #intercepts <= px; inside iff (m - idx) odd.
    // Each run extends until the next intercept overtakes a cell center.
    std::size_t idx = 0;
    std::int64_t c = 0;
    while (c < w.cols) {
      const double px = t.cell_center(r, w.col0 + c).x;
      while (idx < m && xints[idx] <= px) ++idx;
      const bool inside = (m - idx) % 2 == 1;
      std::int64_t run_end = w.cols;
      if (idx < m) {
        const double next_x = xints[idx];
        run_end = c + 1;
        while (run_end < w.cols &&
               t.cell_center(r, w.col0 + run_end).x < next_x) {
          ++run_end;
        }
      }
      if (inside) row.add_run(r, w.col0 + c, w.col0 + run_end);
      c = run_end;
    }
  }
}

}  // namespace

RefineCounters refine_boundary_tiles(Device& device,
                                     const PolygonTileGroups& intersect,
                                     const PolygonSoA& soa,
                                     const DemRaster& raster,
                                     const TilingScheme& tiling,
                                     HistogramSet& polygon_hist,
                                     RefineGranularity /*granularity*/,
                                     RefineStrategy strategy) {
  RefineCounters counters;
  if (strategy != RefineStrategy::kAuto) counters.strategy = strategy;
  if (intersect.pair_count() == 0) return counters;
  ZH_TRACE_SPAN("step4.refine", "pipeline");

  // Sentinel-free edge counts per zone: exact pip_edge_tests accounting
  // for the brute path and the density input of the kAuto heuristic.
  const double* x_v = soa.x_v().data();
  const double* y_v = soa.y_v().data();
  std::vector<std::uint32_t> zone_edges(soa.polygon_count(), 0);
  std::uint64_t weighted_edges = 0;
  for (std::size_t g = 0; g < intersect.group_count(); ++g) {
    const PolygonId pid = intersect.pid_v[g];
    const auto [p_f, p_t] = soa.vertex_range(pid);  // checks pid
    zone_edges[pid] = soa_tested_edges(x_v, y_v, p_f, p_t);
    weighted_edges +=
        static_cast<std::uint64_t>(zone_edges[pid]) * intersect.num_v[g];
  }
  RefineStrategy resolved = strategy;
  if (resolved == RefineStrategy::kAuto) {
    const double density = static_cast<double>(weighted_edges) /
                           static_cast<double>(intersect.pair_count());
    resolved = density >= kAutoEdgeDensity ? RefineStrategy::kScanline
                                           : RefineStrategy::kBrute;
  }
  counters.strategy = resolved;
  const bool scanline = resolved == RefineStrategy::kScanline;

  // The y-banded edge index is only needed (and only paid for) on the
  // scanline path, and only for the zones that own a boundary tile; its
  // build parallelizes over those zones, and it is freed on return.
  EdgeIndex index;
  if (scanline) {
    index = EdgeIndex::build(soa, raster.transform(), raster.rows(),
                             intersect.pid_v);
  }

  // pip_test_kernel analog (Fig. 5 right): a block refines one chunk of
  // a zone's boundary tiles, counting the inside runs (scanline) or
  // inside cells (brute) of each tile row into the zone row.
  const GeoTransform& t = raster.transform();
  std::atomic<std::uint64_t> cell_tests{0};
  std::atomic<std::uint64_t> edge_tests{0};
  std::atomic<std::uint64_t> rows_scanned{0};
  std::atomic<std::uint64_t> run_cells{0};
  const ZoneRowTally tally = count_zone_rows(
      device, raster, intersect, polygon_hist,
      [&](const ZoneChunk& chunk, ZoneRow& row) {
        const auto [p_f, p_t] = soa.vertex_range(chunk.pid);
        LocalCounters local;
        std::vector<double> xints;
        for (std::uint64_t i = chunk.pos; i < chunk.pos + chunk.num; ++i) {
          const CellWindow w = tiling.tile_window(intersect.tid_v[i]);
          if (scanline) {
            refine_tile_scanline(soa, t, index, w, chunk.pid, row, local,
                                 xints);
          } else {
            refine_tile(soa, t, w, p_f, p_t, zone_edges[chunk.pid], row,
                        local);
          }
        }
        cell_tests.fetch_add(local.cell_tests, std::memory_order_relaxed);
        edge_tests.fetch_add(local.edge_tests, std::memory_order_relaxed);
        rows_scanned.fetch_add(local.rows_scanned, std::memory_order_relaxed);
        run_cells.fetch_add(local.run_cells, std::memory_order_relaxed);
      });

  counters.cell_tests = cell_tests.load();
  counters.edge_tests = edge_tests.load();
  counters.cells_counted = tally.counted;
  counters.rows_scanned = rows_scanned.load();
  counters.run_cells = run_cells.load();
  counters.values_clamped = tally.clamped;
  return counters;
}

}  // namespace zh
