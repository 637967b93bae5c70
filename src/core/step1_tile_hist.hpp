// Step 1: per-tile histogram generation (Sec. III.A, Fig. 2).
//
// Two kernels read tile cells:
//
//  * CellAggrKernel (tile_histograms[_into]) -- the paper's kernel: one
//    device block per raster tile, which loops over the tile's cells
//    updating its bins with atomic adds. The reproduction benches
//    (Step-1 ablations) time it.
//  * ZoneHistKernel (count_inside_tiles) -- what the executor runs: the
//    paper's Steps 1 and 3 fused. Each block reads the cells of one
//    zone's completely-inside tiles and counts them straight into the
//    zone's histogram row, so no tiles x bins table exists.
//
// Cells equal to the raster's nodata value are skipped; values >= bins
// clamp into the top bin (the paper assumes v < B; the clamp makes the
// API total).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/histogram.hpp"
#include "core/step2_pairing.hpp"
#include "device/device.hpp"
#include "grid/morton.hpp"
#include "grid/raster.hpp"
#include "grid/tiling.hpp"

namespace zh {

/// Counting strategy ablation (Sec. III.A discusses the tradeoff: atomics
/// into the shared per-tile histogram vs. privatized per-thread
/// histograms merged afterwards, impractical for large bin counts).
enum class CountMode {
  kAtomic,      ///< atomicAdd into the per-tile histogram (paper default)
  kPrivatized,  ///< 256 per-thread histograms per tile, merged after
};

/// Compute per-tile histograms for every tile of `tiling` over `raster`
/// into `out` (reshaped to tile_count x bins, reusing its allocation).
/// `order` selects the within-tile visitation order: kRowMajor is the
/// paper's published kernel; kMorton is its deferred locality
/// optimization (Sec. III.A future work). The result is identical either
/// way -- histograms are order-independent.
void tile_histograms_into(Device& device, const DemRaster& raster,
                          const TilingScheme& tiling, BinIndex bins,
                          CountMode mode, HistogramSet& out,
                          CellOrder order = CellOrder::kRowMajor);

/// One block of the inside count: inside tiles tid_v[pos, pos + num) of
/// zone `pid`. An owned chunk is the zone's whole group and increments
/// the zone row directly; a split chunk counts into a private row first.
struct ZoneChunk {
  PolygonId pid;
  bool owned;
  std::uint64_t pos;
  std::uint64_t num;
};

/// The blocks count_inside_tiles launches on a pool of `workers`
/// threads: one owned chunk per group of `inside`, except that a group
/// holding more than its share of the inside tiles (pairs / workers,
/// rounded up) splits into near-equal contiguous chunks of at most that
/// share.
[[nodiscard]] std::vector<ZoneChunk> plan_zone_chunks(
    const PolygonTileGroups& inside, std::size_t workers);

/// Steps 1 and 3 fused: count the cells of every inside (zone, tile)
/// pair of `inside` straight into the zone's row of `per_zone`
/// (accumulates, does not clear). A tile inside two zones is read once
/// per zone. One block runs per chunk of plan_zone_chunks on the
/// device's pool; a split chunk counts into a private row and adds it
/// into the zone row once, with atomic adds. Unsplit groups own their
/// row and use plain increments, so each zone must head at most one
/// group (make_plan asserts it).
/// Returns the values clamped into the top bin, once per (cell, zone).
[[nodiscard]] std::uint64_t count_inside_tiles(
    Device& device, const DemRaster& raster, const TilingScheme& tiling,
    const PolygonTileGroups& inside, HistogramSet& per_zone);

/// Compute per-tile histograms for every tile of `tiling` over `raster`.
/// Result: one histogram group per tile, `bins` bins each.
[[nodiscard]] HistogramSet tile_histograms(
    Device& device, const DemRaster& raster, const TilingScheme& tiling,
    BinIndex bins, CountMode mode = CountMode::kAtomic,
    CellOrder order = CellOrder::kRowMajor);

}  // namespace zh
