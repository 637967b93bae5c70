#include "core/step1_tile_hist.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

void require_matching_tiling(const DemRaster& raster,
                             const TilingScheme& tiling) {
  ZH_REQUIRE(tiling.raster_rows() == raster.rows() &&
                 tiling.raster_cols() == raster.cols(),
             "tiling scheme does not match raster dims");
}

/// One ZoneHistKernel block: inside tiles tid_v[pos, pos + num) of zone
/// `pid`. An owned chunk is the zone's whole group and increments the
/// zone row directly; a split chunk counts into a private row first.
struct ZoneChunk {
  PolygonId pid;
  bool owned;
  std::uint64_t pos;
  std::uint64_t num;
};

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
  // zero-initialization; the cell loop (lines 6-11) is the strided loop
  // below. Atomic adds are kept even though one block owns one tile's
  // histogram -- faithful to the paper's kernel, and required if a future
  // scheduler splits tiles across blocks. Clamps are not tallied: a
  // per-tile table attributes no cell to a zone (see bin_index).
  device.launch_named(
      "CellAggrKernel", static_cast<std::uint32_t>(tiles),
      [&, nodata, cols, out](const BlockContext& ctx) {
    const TileId tile = ctx.block_id();
    ZH_DCHECK_BOUNDS(tile, tiling.tile_count());
    const CellWindow w = tiling.tile_window(tile);
    BinCount* tile_hist = out + static_cast<std::size_t>(tile) * bins;
    const std::size_t n = static_cast<std::size_t>(w.cell_count());
    const std::size_t cell_count = cells.size();

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
                          const BinIndex b = bin_index(v, bins);
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
          const BinIndex b = bin_index(v, bins);
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
          const BinIndex b = bin_index(v, bins);
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
  });
}

HistogramSet tile_histograms(Device& device, const DemRaster& raster,
                             const TilingScheme& tiling, BinIndex bins,
                             CountMode mode, CellOrder order) {
  HistogramSet hist;
  tile_histograms_into(device, raster, tiling, bins, mode, hist, order);
  return hist;
}

std::uint64_t count_inside_tiles(Device& device, const DemRaster& raster,
                                 const TilingScheme& tiling,
                                 const PolygonTileGroups& inside,
                                 HistogramSet& per_zone) {
  require_matching_tiling(raster, tiling);
  if (inside.group_count() == 0) return 0;
  ZH_TRACE_SPAN("step1.zone_hist", "pipeline");

  // A group holding more than its share of the inside tiles would run on
  // one thread while the others idle (a whole-raster AOI, a coarse
  // zone): split it into near-equal contiguous chunks of at most `share`
  // tiles.
  const std::uint64_t workers =
      std::max<std::uint64_t>(1, device.concurrency());
  const std::uint64_t share =
      (inside.pair_count() + workers - 1) / workers;
  std::vector<ZoneChunk> chunks;
  chunks.reserve(inside.group_count());
  for (std::size_t g = 0; g < inside.group_count(); ++g) {
    const PolygonId pid = inside.pid_v[g];
    const std::uint64_t pos = inside.pos_v[g];
    const std::uint64_t num = inside.num_v[g];
    ZH_REQUIRE(pid < per_zone.groups(), "inside group zone ", pid,
               " has no histogram row (", per_zone.groups(), " zones)");
    ZH_ASSERT(pos + num <= inside.pair_count(), "group tile slice [", pos,
              ", ", pos + num, ") exceeds pair count ", inside.pair_count());
    if (num <= share) {
      chunks.push_back({pid, true, pos, num});
      continue;
    }
    const std::uint64_t parts = (num + share - 1) / share;
    for (std::uint64_t k = 0; k < parts; ++k) {
      const std::uint64_t begin = num * k / parts;
      const std::uint64_t end = num * (k + 1) / parts;
      chunks.push_back({pid, false, pos + begin, end - begin});
    }
  }

  const BinIndex bins = per_zone.bins();
  const std::optional<CellValue> nodata = raster.nodata();
  const CellValue* cells = raster.cells().data();
  const std::int64_t cols = raster.cols();
  BinCount* rows = per_zone.flat().data();
  std::atomic<std::uint64_t> clamped_values{0};
  device.launch_named(
      "ZoneHistKernel", static_cast<std::uint32_t>(chunks.size()),
      [&](const BlockContext& ctx) {
        ZH_DCHECK_BOUNDS(ctx.block_id(), chunks.size());
        const ZoneChunk& chunk = chunks[ctx.block_id()];
        BinCount* zone_row = rows + static_cast<std::size_t>(chunk.pid) * bins;
        std::vector<BinCount> priv;
        BinCount* out = zone_row;
        if (!chunk.owned) {
          priv.assign(bins, 0);
          out = priv.data();
        }
        std::uint64_t clamped = 0;
        for (std::uint64_t i = chunk.pos; i < chunk.pos + chunk.num; ++i) {
          const CellWindow w = tiling.tile_window(inside.tid_v[i]);
          for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
            const CellValue* row = cells + r * cols + w.col0;
            for (std::int64_t c = 0; c < w.cols; ++c) {
              const CellValue v = row[c];
              if (nodata && v == *nodata) continue;
              ++out[bin_index(v, bins, clamped)];
            }
          }
        }
        if (!chunk.owned) {
          for (BinIndex b = 0; b < bins; ++b) {
            if (priv[b] != 0) atomic_add(&zone_row[b], priv[b]);
          }
        }
        clamped_values.fetch_add(clamped, std::memory_order_relaxed);
      });
  return clamped_values.load();
}

}  // namespace zh
