#include "core/step1_tile_hist.hpp"

#include <atomic>
#include <numeric>
#include <vector>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

/// CellAggrKernel over `tiles`: block i histograms tile tiles[i] into
/// row i of `hist`.
void histogram_tiles(Device& device, const DemRaster& raster,
                     const TilingScheme& tiling,
                     std::span<const TileId> tiles, BinIndex bins,
                     CountMode mode, HistogramSet& hist, CellOrder order) {
  ZH_REQUIRE(tiling.raster_rows() == raster.rows() &&
                 tiling.raster_cols() == raster.cols(),
             "tiling scheme does not match raster dims");
  ZH_TRACE_SPAN("step1.tile_hist", "pipeline");
  hist.reset(tiles.size(), bins);
  if (tiles.empty()) return;

  const std::optional<CellValue> nodata = raster.nodata();
  const std::span<const CellValue> cells = raster.cells();
  const std::int64_t cols = raster.cols();
  BinCount* out = hist.flat().data();

  // CellAggrKernel analog: block idx handles tile tiles[idx]. The bin
  // zeroing phase of Fig. 2 (lines 2-4) is done by HistogramSet's
  // zero-initialization; the cell loop (lines 6-11) is the strided loop
  // below. Atomic adds are kept even though one block owns one tile's
  // histogram -- faithful to the paper's kernel, and required if a future
  // scheduler splits tiles across blocks.
  std::atomic<std::uint64_t> clamped_values{0};
  std::atomic<std::uint64_t> cells_histogrammed{0};
  device.launch_named(
      "CellAggrKernel", static_cast<std::uint32_t>(tiles.size()),
      [&, nodata, cols, out](const BlockContext& ctx) {
    ZH_DCHECK_BOUNDS(ctx.block_id(), tiles.size());
    const TileId tile = tiles[ctx.block_id()];
    ZH_DCHECK_BOUNDS(tile, tiling.tile_count());
    const CellWindow w = tiling.tile_window(tile);
    BinCount* tile_hist =
        out + static_cast<std::size_t>(ctx.block_id()) * bins;
    const std::size_t n = static_cast<std::size_t>(w.cell_count());
    const std::size_t cell_count = cells.size();
    std::uint64_t clamped = 0;

    switch (mode) {
      case CountMode::kAtomic:
        if (order == CellOrder::kMorton) {
          // Z-order visitation: the Sec. III.A locality improvement.
          // Histograms are order-independent, so the result is identical
          // to row-major; only the access pattern changes.
          for_each_cell(static_cast<std::uint32_t>(w.rows),
                        static_cast<std::uint32_t>(w.cols),
                        CellOrder::kMorton,
                        [&](std::uint32_t lr, std::uint32_t lc) {
                          const std::int64_t r = w.row0 + lr;
                          const std::int64_t c = w.col0 + lc;
                          const std::size_t cell =
                              static_cast<std::size_t>(r * cols + c);
                          ZH_DCHECK_BOUNDS(cell, cell_count);
                          const CellValue v = cells[cell];
                          if (nodata && v == *nodata) return;
                          const BinIndex b = bin_index(v, bins, clamped);
                          ZH_DCHECK_BOUNDS(b, bins);
                          atomic_add(&tile_hist[b]);
                        });
          break;
        }
        ctx.strided(n, [&](std::size_t p) {
          const std::int64_t r = w.row0 + static_cast<std::int64_t>(p) /
                                              w.cols;
          const std::int64_t c = w.col0 + static_cast<std::int64_t>(p) %
                                              w.cols;
          const std::size_t cell = static_cast<std::size_t>(r * cols + c);
          ZH_DCHECK_BOUNDS(cell, cell_count);
          const CellValue v = cells[cell];
          if (nodata && v == *nodata) return;
          const BinIndex b = bin_index(v, bins, clamped);
          ZH_DCHECK_BOUNDS(b, bins);
          atomic_add(&tile_hist[b]);
        });
        break;

      case CountMode::kPrivatized: {
        // One private histogram per virtual thread, merged after the cell
        // phase; memory cost bins * block_dim per block, which is why the
        // paper rejects this for large bin counts.
        const std::uint32_t dim = ctx.block_dim();
        std::vector<BinCount> priv(static_cast<std::size_t>(bins) * dim, 0);
        ctx.strided(n, [&](std::size_t p) {
          const std::int64_t r = w.row0 + static_cast<std::int64_t>(p) /
                                              w.cols;
          const std::int64_t c = w.col0 + static_cast<std::int64_t>(p) %
                                              w.cols;
          const std::size_t cell = static_cast<std::size_t>(r * cols + c);
          ZH_DCHECK_BOUNDS(cell, cell_count);
          const CellValue v = cells[cell];
          if (nodata && v == *nodata) return;
          const BinIndex b = bin_index(v, bins, clamped);
          ZH_DCHECK_BOUNDS(b, bins);
          const std::uint32_t t = static_cast<std::uint32_t>(p % dim);
          ++priv[static_cast<std::size_t>(t) * bins + b];
        });
        ctx.sync();
        ctx.strided(bins, [&](std::size_t b) {
          BinCount acc = 0;
          for (std::uint32_t t = 0; t < dim; ++t) {
            acc += priv[static_cast<std::size_t>(t) * bins + b];
          }
          tile_hist[b] += acc;
        });
        break;
      }
    }
    clamped_values.fetch_add(clamped, std::memory_order_relaxed);
    cells_histogrammed.fetch_add(n, std::memory_order_relaxed);
  });
  ZH_COUNTER_ADD("step1.cells_histogrammed", cells_histogrammed.load());
  ZH_COUNTER_ADD("step1.tiles", tiles.size());
  note_values_clamped(clamped_values.load());
}

}  // namespace

void tile_histograms_into(Device& device, const DemRaster& raster,
                          const TilingScheme& tiling,
                          std::span<const TileId> tiles, BinIndex bins,
                          CountMode mode, HistogramSet& hist,
                          CellOrder order) {
  histogram_tiles(device, raster, tiling, tiles, bins, mode, hist, order);
}

void tile_histograms_into(Device& device, const DemRaster& raster,
                          const TilingScheme& tiling, BinIndex bins,
                          CountMode mode, HistogramSet& hist,
                          CellOrder order) {
  std::vector<TileId> all(tiling.tile_count());
  std::iota(all.begin(), all.end(), TileId{0});
  histogram_tiles(device, raster, tiling, all, bins, mode, hist, order);
}

HistogramSet tile_histograms(Device& device, const DemRaster& raster,
                             const TilingScheme& tiling, BinIndex bins,
                             CountMode mode, CellOrder order) {
  std::vector<TileId> all(tiling.tile_count());
  std::iota(all.begin(), all.end(), TileId{0});
  HistogramSet hist;
  histogram_tiles(device, raster, tiling, all, bins, mode, hist, order);
  return hist;
}

}  // namespace zh
