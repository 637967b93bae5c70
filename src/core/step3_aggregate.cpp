#include "core/step3_aggregate.hpp"

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace zh {

void aggregate_inside_tiles(Device& device, const PolygonTileGroups& inside,
                            const HistogramSet& tile_hist,
                            HistogramSet& polygon_hist) {
  if (inside.group_count() == 0) return;
  ZH_TRACE_SPAN("step3.aggregate", "pipeline");
  ZH_REQUIRE(tile_hist.bins() == polygon_hist.bins(),
             "tile/polygon histogram bin counts differ");
  const BinIndex bins = tile_hist.bins();
  const BinCount* tiles = tile_hist.flat().data();
  BinCount* polys = polygon_hist.flat().data();

  // UpdateHistKernel analog (Fig. 4 right): block idx -> (pid, num, pos);
  // outer loop over bins, inner loop over the polygon's tiles. On the
  // GPU consecutive threads take consecutive bins of both the tile row
  // and the polygon row -- the coalesced-access pattern the paper
  // engineers for.
  device.launch(inside.group_count(), [&, bins, tiles, polys](std::size_t idx) {
    ZH_DCHECK_BOUNDS(idx, inside.group_count());
    const PolygonId pid = inside.pid_v[idx];
    const std::uint64_t num = inside.num_v[idx];
    const std::uint64_t pos = inside.pos_v[idx];
    // Dispatch-array invariants from the Fig. 4 post-processing: the
    // group's tile slice lies within tid_v and every id addresses a
    // real histogram row.
    ZH_DCHECK_BOUNDS(pid, polygon_hist.groups());
    ZH_ASSERT(static_cast<std::size_t>(pos) + num <= inside.pair_count(),
              "group tile slice [", pos, ", ", pos + num,
              ") exceeds pair count ", inside.pair_count());
    BinCount* out = polys + static_cast<std::size_t>(pid) * bins;
    for (BinIndex p = 0; p < bins; ++p) {
      BinCount acc = 0;
      for (std::uint32_t i = 0; i < num; ++i) {
        const TileId w = inside.tid_v[pos + i];
        ZH_DCHECK_BOUNDS(w, tile_hist.groups());
        acc += tiles[static_cast<std::size_t>(w) * bins + p];
      }
      out[p] += acc;
    }
  });
}

}  // namespace zh
