#include "core/step1_tile_hist.hpp"

#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

/// Threads per block of the privatized Step-1 ablation: the block size
/// of the CUDA launch it models, so cell p of a tile counts into private
/// histogram p % 256.
constexpr std::size_t kPrivatizedThreads = 256;

void require_matching_tiling(const DemRaster& raster,
                             const TilingScheme& tiling) {
  ZH_REQUIRE(tiling.raster_rows() == raster.rows() &&
                 tiling.raster_cols() == raster.cols(),
             "tiling scheme does not match raster dims");
}

}  // namespace

void tile_histograms_into(Device& device, const DemRaster& raster,
                          const TilingScheme& tiling, BinIndex bins,
                          CountMode mode, HistogramSet& hist,
                          CellOrder order) {
  require_matching_tiling(raster, tiling);
  ZH_TRACE_SPAN("step1.tile_hist", "pipeline");
  const std::size_t tiles = tiling.tile_count();
  hist.reset(tiles, bins);
  if (tiles == 0) return;

  const std::optional<CellValue> nodata = raster.nodata();
  const std::span<const CellValue> cells = raster.cells();
  const std::int64_t cols = raster.cols();
  BinCount* out = hist.flat().data();

  // CellAggrKernel analog: block idx handles tile idx. The bin zeroing
  // phase of Fig. 2 (lines 2-4) is done by HistogramSet's
  // zero-initialization; the cell loop (lines 6-11) visits the tile's
  // cells in row-major order. Atomic adds are kept even though one block
  // owns one tile's histogram -- faithful to the paper's kernel, and
  // required if a future scheduler splits tiles across blocks. Clamps are
  // not tallied: a per-tile table attributes no cell to a zone (see
  // bin_index).
  device.launch(tiles, [&, nodata, cols, out](std::size_t block) {
    const TileId tile = static_cast<TileId>(block);
    ZH_DCHECK_BOUNDS(tile, tiling.tile_count());
    const CellWindow w = tiling.tile_window(tile);
    BinCount* tile_hist = out + block * bins;
    const std::size_t cell_count = cells.size();
    // The bin of cell (r, c), or nullopt for a nodata cell.
    const auto bin_of = [&](std::int64_t r,
                            std::int64_t c) -> std::optional<BinIndex> {
      const std::size_t cell = static_cast<std::size_t>(r * cols + c);
      ZH_DCHECK_BOUNDS(cell, cell_count);
      const CellValue v = cells[cell];
      if (nodata && v == *nodata) return std::nullopt;
      const BinIndex b = bin_index(v, bins);
      ZH_DCHECK_BOUNDS(b, bins);
      return b;
    };

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
                          if (const auto b = bin_of(w.row0 + lr,
                                                    w.col0 + lc)) {
                            atomic_add(&tile_hist[*b]);
                          }
                        });
          break;
        }
        for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
          for (std::int64_t c = w.col0; c < w.col0 + w.cols; ++c) {
            if (const auto b = bin_of(r, c)) atomic_add(&tile_hist[*b]);
          }
        }
        break;

      case CountMode::kPrivatized: {
        // One private histogram per thread of a CUDA block, the tile's
        // p-th cell (row-major) going to thread p % kPrivatizedThreads,
        // summed after the cell loop. Memory cost bins *
        // kPrivatizedThreads per block, which is why the paper rejects
        // this for large bin counts.
        std::vector<BinCount> priv(
            static_cast<std::size_t>(bins) * kPrivatizedThreads, 0);
        std::size_t p = 0;
        for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
          for (std::int64_t c = w.col0; c < w.col0 + w.cols; ++c, ++p) {
            if (const auto b = bin_of(r, c)) {
              ++priv[(p % kPrivatizedThreads) * bins + *b];
            }
          }
        }
        for (BinIndex b = 0; b < bins; ++b) {
          BinCount acc = 0;
          for (std::size_t t = 0; t < kPrivatizedThreads; ++t) {
            acc += priv[t * bins + b];
          }
          tile_hist[b] += acc;
        }
        break;
      }
    }
  });
}

HistogramSet tile_histograms(Device& device, const DemRaster& raster,
                             const TilingScheme& tiling, BinIndex bins,
                             CountMode mode, CellOrder order) {
  HistogramSet hist;
  tile_histograms_into(device, raster, tiling, bins, mode, hist, order);
  return hist;
}

ZoneRowTally count_inside_tiles(Device& device, const DemRaster& raster,
                                const TilingScheme& tiling,
                                const PolygonTileGroups& inside,
                                HistogramSet& per_zone) {
  require_matching_tiling(raster, tiling);
  if (inside.group_count() == 0) return {};
  ZH_TRACE_SPAN("step1.zone_hist", "pipeline");
  // Every cell of an inside tile counts.
  return count_zone_rows(
      device, raster, tiling, inside, per_zone,
      [&](const ZoneChunk& chunk, ZoneRow& row) {
        for (std::uint64_t i = chunk.pos; i < chunk.pos + chunk.num; ++i) {
          const CellWindow w = tiling.tile_window(inside.tid_v[i]);
          for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
            row.add_run(r, w.col0, w.col0 + w.cols);
          }
        }
      });
}

}  // namespace zh
