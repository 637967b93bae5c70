#include "core/step4_refine.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/contracts.hpp"
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

/// Everything the per-cell test needs, shared by both granularities.
struct RefineCtx {
  const PolygonSoA* soa;
  const DemRaster* raster;
  const TilingScheme* tiling;
  const EdgeIndex* index;  ///< null under kBrute
  std::span<const CellValue> cells;
  std::int64_t cols;
  BinIndex bins;
  std::optional<CellValue> nodata;
  BinCount* polys;
};

struct LocalCounters {
  std::uint64_t cell_tests = 0;
  std::uint64_t edge_tests = 0;
  std::uint64_t counted = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t run_cells = 0;
  std::uint64_t clamped = 0;
};

/// Brute force: test every cell of tile `w` against polygon [p_f, p_t),
/// updating the polygon's histogram row. `tested_edges` is the
/// sentinel-free edge count the PiP loop actually evaluates per cell.
/// `Update` injects plain or atomic adds.
template <typename Update>
void refine_tile(const RefineCtx& ctx, const CellWindow& w,
                 std::uint32_t p_f, std::uint32_t p_t,
                 std::uint32_t tested_edges, BinCount* out,
                 LocalCounters& local, Update update) {
  const double* x_v = ctx.soa->x_v().data();
  const double* y_v = ctx.soa->y_v().data();
  const GeoTransform& t = ctx.raster->transform();
  for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
    for (std::int64_t c = w.col0; c < w.col0 + w.cols; ++c) {
      const GeoPoint center = t.cell_center(r, c);
      ++local.cell_tests;
      local.edge_tests += tested_edges;
      if (point_in_polygon_soa_raw(x_v, y_v, p_f, p_t, center.x, center.y)) {
        const std::size_t cell = static_cast<std::size_t>(r * ctx.cols + c);
        ZH_DCHECK_BOUNDS(cell, ctx.cells.size());
        const CellValue v = ctx.cells[cell];
        if (ctx.nodata && v == *ctx.nodata) continue;
        const BinIndex b = bin_index(v, ctx.bins, local.clamped);
        ZH_DCHECK_BOUNDS(b, ctx.bins);
        update(&out[b]);
        ++local.counted;
      }
    }
  }
}

/// Scanline: classify tile `w` against polygon `pid` row by row. Each
/// row gathers only the banded edges crossing its cell-center y,
/// computes their sorted x-intercepts once, and walks the row as
/// inside/outside runs. Parity matches the brute path bit-for-bit: a
/// cell is inside iff the count of intercepts > px is odd, the scanline
/// y is the one the brute path tests, and the intercepts come from
/// scanline_crossing, the function the brute path calls.
template <typename Update>
void refine_tile_scanline(const RefineCtx& ctx, const CellWindow& w,
                          PolygonId pid, BinCount* out,
                          LocalCounters& local, std::vector<double>& xints,
                          Update update) {
  const double* x_v = ctx.soa->x_v().data();
  const double* y_v = ctx.soa->y_v().data();
  const GeoTransform& t = ctx.raster->transform();
  for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
    ++local.rows_scanned;
    local.cell_tests += static_cast<std::uint64_t>(w.cols);
    local.run_cells += static_cast<std::uint64_t>(w.cols);
    const std::span<const std::uint32_t> band = ctx.index->row_edges(pid, r);
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
      if (inside) {
        const std::size_t row_base = static_cast<std::size_t>(r * ctx.cols);
        for (std::int64_t cc = c; cc < run_end; ++cc) {
          const std::size_t cell =
              row_base + static_cast<std::size_t>(w.col0 + cc);
          ZH_DCHECK_BOUNDS(cell, ctx.cells.size());
          const CellValue v = ctx.cells[cell];
          if (ctx.nodata && v == *ctx.nodata) continue;
          const BinIndex b = bin_index(v, ctx.bins, local.clamped);
          ZH_DCHECK_BOUNDS(b, ctx.bins);
          update(&out[b]);
          ++local.counted;
        }
      }
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
                                     RefineGranularity granularity,
                                     RefineStrategy strategy) {
  RefineCounters counters;
  if (strategy != RefineStrategy::kAuto) counters.strategy = strategy;
  if (intersect.pair_count() == 0) return counters;
  ZH_TRACE_SPAN("step4.refine", "pipeline");

  // Sentinel-free edge counts per group: exact pip_edge_tests accounting
  // for the brute path and the density input of the kAuto heuristic.
  const double* x_v = soa.x_v().data();
  const double* y_v = soa.y_v().data();
  std::vector<std::uint32_t> group_edges(intersect.group_count());
  std::uint64_t weighted_edges = 0;
  for (std::size_t g = 0; g < intersect.group_count(); ++g) {
    const auto [p_f, p_t] = soa.vertex_range(intersect.pid_v[g]);
    group_edges[g] = soa_tested_edges(x_v, y_v, p_f, p_t);
    weighted_edges +=
        static_cast<std::uint64_t>(group_edges[g]) * intersect.num_v[g];
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

  RefineCtx ctx{&soa,
                &raster,
                &tiling,
                scanline ? &index : nullptr,
                raster.cells(),
                raster.cols(),
                polygon_hist.bins(),
                raster.nodata(),
                polygon_hist.flat().data()};

  std::atomic<std::uint64_t> cell_tests{0};
  std::atomic<std::uint64_t> edge_tests{0};
  std::atomic<std::uint64_t> cells_counted{0};
  std::atomic<std::uint64_t> rows_scanned{0};
  std::atomic<std::uint64_t> run_cells{0};
  std::atomic<std::uint64_t> clamped{0};
  auto flush = [&](const LocalCounters& local) {
    cell_tests.fetch_add(local.cell_tests, std::memory_order_relaxed);
    edge_tests.fetch_add(local.edge_tests, std::memory_order_relaxed);
    cells_counted.fetch_add(local.counted, std::memory_order_relaxed);
    rows_scanned.fetch_add(local.rows_scanned, std::memory_order_relaxed);
    run_cells.fetch_add(local.run_cells, std::memory_order_relaxed);
    clamped.fetch_add(local.clamped, std::memory_order_relaxed);
  };

  switch (granularity) {
    case RefineGranularity::kPolygonGroup:
      // pip_test_kernel analog (Fig. 5 right): block idx -> (pid, num,
      // pos); plain adds -- the block owns the polygon's output row.
      device.launch(
          intersect.group_count(), [&](std::size_t idx) {
            ZH_DCHECK_BOUNDS(idx, intersect.group_count());
            const PolygonId pid = intersect.pid_v[idx];
            const std::uint64_t num = intersect.num_v[idx];
            const std::uint64_t pos = intersect.pos_v[idx];
            ZH_DCHECK_BOUNDS(pid, polygon_hist.groups());
            ZH_ASSERT(static_cast<std::size_t>(pos) + num <=
                          intersect.pair_count(),
                      "group tile slice [", pos, ", ", pos + num,
                      ") exceeds pair count ", intersect.pair_count());
            const auto [p_f, p_t] = soa.vertex_range(pid);
            BinCount* out =
                ctx.polys + static_cast<std::size_t>(pid) * ctx.bins;
            LocalCounters local;
            std::vector<double> xints;
            for (std::uint32_t k = 0; k < num; ++k) {
              const CellWindow w =
                  tiling.tile_window(intersect.tid_v[pos + k]);
              if (scanline) {
                refine_tile_scanline(ctx, w, pid, out, local, xints,
                                     [](BinCount* slot) { *slot += 1; });
              } else {
                refine_tile(ctx, w, p_f, p_t, group_edges[idx], out, local,
                            [](BinCount* slot) { *slot += 1; });
              }
            }
            flush(local);
          });
      break;

    case RefineGranularity::kPolygonTile: {
      // One block per (polygon, tile) pair. Blocks of the same polygon
      // race on its histogram row, so updates are atomic -- the
      // tradeoff for intra-step load balance.
      std::vector<PolygonId> pair_pid(intersect.pair_count());
      std::vector<std::uint32_t> pair_edges(intersect.pair_count());
      for (std::size_t g = 0; g < intersect.group_count(); ++g) {
        for (std::uint64_t k = 0; k < intersect.num_v[g]; ++k) {
          pair_pid[intersect.pos_v[g] + k] = intersect.pid_v[g];
          pair_edges[intersect.pos_v[g] + k] = group_edges[g];
        }
      }
      device.launch(
          intersect.pair_count(), [&](std::size_t idx) {
            ZH_DCHECK_BOUNDS(idx, pair_pid.size());
            const PolygonId pid = pair_pid[idx];
            ZH_DCHECK_BOUNDS(pid, polygon_hist.groups());
            const auto [p_f, p_t] = soa.vertex_range(pid);
            BinCount* out =
                ctx.polys + static_cast<std::size_t>(pid) * ctx.bins;
            const CellWindow w =
                tiling.tile_window(intersect.tid_v[idx]);
            LocalCounters local;
            if (scanline) {
              std::vector<double> xints;
              refine_tile_scanline(ctx, w, pid, out, local, xints,
                                   [](BinCount* slot) { atomic_add(slot); });
            } else {
              refine_tile(ctx, w, p_f, p_t, pair_edges[idx], out, local,
                          [](BinCount* slot) { atomic_add(slot); });
            }
            flush(local);
          });
      break;
    }
  }

  counters.cell_tests = cell_tests.load();
  counters.edge_tests = edge_tests.load();
  counters.cells_counted = cells_counted.load();
  counters.rows_scanned = rows_scanned.load();
  counters.run_cells = run_cells.load();
  counters.values_clamped = clamped.load();
  return counters;
}

}  // namespace zh
