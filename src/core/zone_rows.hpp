// The zone-row kernel: the one place the executor adds raster cells into
// per-zone histogram rows, for the inside count (Steps 1 and 3 fused,
// count_inside_tiles) and for Step 4 (refine_boundary_tiles).
//
// A launch runs one device block per chunk of plan_zone_chunks over a set
// of Fig.-4 (zone, tiles) groups. The caller's chunk body picks which
// cells of the chunk's tiles count -- every cell of an inside tile, or
// the inside runs or cells of a boundary tile -- and adds each run of
// them through ZoneRow::add_run, the one counting loop: it skips nodata
// cells and bins through bin_index. Where a chunk's cells go is
// chunk_counting's rule, from sizes the plan knows:
//
//  * a chunk of at least 16 x bins cells counts cell i of each run into
//    sub-row i mod 4 of a per-thread scratch of four 32-bit rows, so
//    nearby cells that land in one bin do not wait on each other's
//    stores. At chunk end the block folds the four into the zone row
//    once: plain adds if the chunk owns its zone (the zone's whole
//    group), atomic adds if the zone is split across blocks;
//  * a smaller owned chunk counts straight into the zone row, where the
//    fold would cost more than the sub-rows save;
//  * a smaller split chunk counts into one scratch row, folded with
//    atomic adds.
//
// The paper's Step-1 kernel sits at the two ends of this trade-off: one
// shared histogram per block updated with atomicAdd, or 256 private
// per-thread copies, impractical at thousands of bins (Sec. III.A). Four
// private copies sit between them. The rows belong to a HistogramSet
// that may hold only the launch's zones; each chunk looks its zone's row
// up once.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "core/histogram.hpp"
#include "core/step2_pairing.hpp"
#include "device/device.hpp"
#include "grid/raster.hpp"
#include "grid/tiling.hpp"

namespace zh {

/// One block of a zone-row launch: tiles tid_v[pos, pos + num) of zone
/// `pid`. An owned chunk is the zone's whole group, the only block that
/// writes the zone row; a split chunk shares the row with other blocks.
struct ZoneChunk {
  PolygonId pid;
  bool owned;
  std::uint64_t pos;
  std::uint64_t num;
};

/// The blocks of a zone-row launch over `groups` on a pool of `workers`
/// threads: one owned chunk per group, except that a group holding more
/// than its share of the tiles (pairs / workers, rounded up) splits into
/// near-equal contiguous chunks of at most that share.
[[nodiscard]] std::vector<ZoneChunk> plan_zone_chunks(
    const PolygonTileGroups& groups, std::size_t workers);

/// What a zone-row launch added, in (cell, zone) attributions -- the unit
/// of WorkCounters::cells_in_polygons: a cell counted into two zones'
/// rows counts twice.
struct ZoneRowTally {
  std::uint64_t counted = 0;  ///< cells added (nodata cells are skipped)
  std::uint64_t clamped = 0;  ///< of those, values folded into the top bin
};

/// Where a chunk's cells go before they reach the zone row.
enum class ChunkCounting : std::uint8_t {
  kDirect,      ///< straight into the zone row (a small owned chunk)
  kScratchRow,  ///< into one scratch row (a small split chunk)
  kSubRows,     ///< into four scratch sub-rows, cell i of a run into i mod 4
};

/// The rule, from sizes the plan knows: a chunk that may hold at least
/// 16 x bins cells (its tiles x the largest tile window) counts through
/// sub-rows, and so does every chunk of a raster of 2^32 cells or more;
/// a smaller chunk counts directly if it owns its zone and into one
/// scratch row if it is split.
[[nodiscard]] ChunkCounting chunk_counting(const ZoneChunk& chunk,
                                           const TilingScheme& tiling,
                                           BinIndex bins);

/// One block's counting loop and the rows it adds into. A scratch row
/// belongs to the calling thread and reads zero between chunks: fold()
/// adds it into the zone row and zeroes it, and the destructor zeroes
/// what an exception left in it.
class ZoneRow {
 public:
  ZoneRow(const DemRaster& raster, BinIndex bins, const ZoneChunk& chunk,
          BinCount* zone_row, ChunkCounting counting);
  ZoneRow(const ZoneRow&) = delete;
  ZoneRow& operator=(const ZoneRow&) = delete;
  ~ZoneRow();

  /// Count the cells [c0, c1) of raster row `r`.
  void add_run(std::int64_t r, std::int64_t c0, std::int64_t c1) {
    ZH_DCHECK_BOUNDS(r, rows_);
    ZH_ASSERT(0 <= c0 && c0 <= c1 && c1 <= cols_, "run [", c0, ", ", c1,
              ") outside the raster's ", cols_, " columns");
    const CellValue* cell = cells_ + r * cols_ + c0;
    const CellValue* const end = cells_ + r * cols_ + c1;
    if (counting_ != ChunkCounting::kDirect) {
      // A scratch slot holds at most the cells added since the last
      // fold: fold before it could pass kMaxBinCount.
      for (std::uint64_t room = kMaxBinCount - pending_;
           static_cast<std::uint64_t>(end - cell) > room;
           room = kMaxBinCount) {
        count(cell, cell + room);
        cell += room;
        pending_ = kMaxBinCount;
        fold();
      }
      pending_ += static_cast<std::uint64_t>(end - cell);
    }
    count(cell, end);
  }

  /// Add the scratch into the zone row and zero it: plain adds if the
  /// chunk owns its zone, atomic adds if it is split. Each add is
  /// checked; one that would pass kMaxBinCount throws OverflowError,
  /// naming the zone and the bin. A direct chunk has nothing to fold.
  void fold();

  [[nodiscard]] const ZoneRowTally& tally() const { return tally_; }

 private:
  /// The one counting loop: cell i of [cell, end) into lane i mod 4,
  /// skipping nodata cells and binning through bin_index. The lanes are
  /// four sub-rows, or all one row (the zone row or one scratch row).
  void count(const CellValue* cell, const CellValue* const end) {
    const bool has_nodata = nodata_.has_value();
    const CellValue nodata = nodata_.value_or(0);
    const BinIndex bins = bins_;
    std::uint64_t counted =
        tally_.counted + static_cast<std::uint64_t>(end - cell);
    std::uint64_t clamped = tally_.clamped;
    const auto add = [&](BinCount* lane, CellValue v) {
      if (has_nodata && v == nodata) {
        --counted;
        return;
      }
      ++lane[bin_index(v, bins, clamped)];
    };
    BinCount* const l0 = lanes_[0];
    BinCount* const l1 = lanes_[1];
    BinCount* const l2 = lanes_[2];
    BinCount* const l3 = lanes_[3];
    for (; end - cell >= 4; cell += 4) {
      add(l0, cell[0]);
      add(l1, cell[1]);
      add(l2, cell[2]);
      add(l3, cell[3]);
    }
    for (std::size_t k = 0; cell != end; ++cell, ++k) add(lanes_[k], *cell);
    tally_ = {counted, clamped};
  }

  const CellValue* cells_;
  std::int64_t rows_;
  std::int64_t cols_;
  std::optional<CellValue> nodata_;
  BinIndex bins_;
  PolygonId zone_;
  bool owned_;
  ChunkCounting counting_;
  BinCount* zone_row_;
  std::array<BinCount*, 4> lanes_;
  std::size_t scratch_rows_ = 0;  ///< distinct rows behind lanes_: 0, 1 or 4
  std::uint64_t pending_ = 0;     ///< cells counted since the last fold
  ZoneRowTally tally_;
};

/// Launch the zone-row kernel over `groups`, whose tiles are those of
/// `tiling`: one block per chunk of plan_zone_chunks(groups,
/// device.concurrency()), each calling `count_chunk(chunk, row)`, which
/// adds the chunk's cells through `row`; the block then folds the row.
/// `per_zone` must hold a row for every zone of `groups` (each chunk looks
/// its row up once, before the launch), and each zone must head at most
/// one group, since an owned chunk adds into its row without atomics
/// (build_pairing_groups emits each class's groups in increasing zone
/// order). Accumulates into `per_zone`; returns the launch's tally.
///
/// A direct chunk adds unchecked. That cannot wrap in a run, which
/// starts every row at zero (execute_plan): a (zone, bin) count is at
/// most the raster's cell count, and chunk_counting counts directly only
/// on rasters under 2^32 cells. Every fold is checked.
template <typename CountChunk>
ZoneRowTally count_zone_rows(Device& device, const DemRaster& raster,
                             const TilingScheme& tiling,
                             const PolygonTileGroups& groups,
                             HistogramSet& per_zone,
                             const CountChunk& count_chunk) {
  const std::vector<ZoneChunk> chunks =
      plan_zone_chunks(groups, device.concurrency());
  std::vector<BinCount*> zone_rows(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    zone_rows[i] = per_zone.row(chunks[i].pid).data();  // refuses unheld
  }
  const BinIndex bins = per_zone.bins();
  std::atomic<std::uint64_t> counted{0};
  std::atomic<std::uint64_t> clamped{0};
  device.launch(chunks.size(), [&](std::size_t block) {
    ZH_DCHECK_BOUNDS(block, chunks.size());
    const ZoneChunk& chunk = chunks[block];
    ZoneRow row(raster, bins, chunk, zone_rows[block],
                chunk_counting(chunk, tiling, bins));
    count_chunk(chunk, row);
    row.fold();
    counted.fetch_add(row.tally().counted, std::memory_order_relaxed);
    clamped.fetch_add(row.tally().clamped, std::memory_order_relaxed);
  });
  return {counted.load(), clamped.load()};
}

}  // namespace zh
