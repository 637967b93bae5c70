// The zone-row kernel: the one place the executor adds raster cells into
// per-zone histogram rows, for the inside count (Steps 1 and 3 fused,
// count_inside_tiles) and for Step 4 (refine_boundary_tiles).
//
// A launch runs one device block per chunk of plan_zone_chunks over a set
// of Fig.-4 (zone, tiles) groups. The caller's chunk body picks which
// cells of the chunk's tiles count -- every cell of an inside tile, or
// the inside runs or cells of a boundary tile -- and adds each run of
// them through ZoneRow::add_run, the one counting loop: it skips nodata
// cells and bins through bin_index. An owned chunk (a zone's whole group)
// adds into the zone's row with plain increments; a split chunk adds into
// a private row, which the block adds into the zone row once, with atomic
// adds.
#pragma once

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

namespace zh {

/// One block of a zone-row launch: tiles tid_v[pos, pos + num) of zone
/// `pid`. An owned chunk is the zone's whole group and increments the
/// zone row directly; a split chunk counts into a private row first.
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

/// One block's histogram row and the counting loop that adds into it.
class ZoneRow {
 public:
  ZoneRow(const DemRaster& raster, BinIndex bins, BinCount* row)
      : cells_(raster.cells().data()),
        rows_(raster.rows()),
        cols_(raster.cols()),
        nodata_(raster.nodata()),
        bins_(bins),
        row_(row) {}

  /// Count the cells [c0, c1) of raster row `r`.
  void add_run(std::int64_t r, std::int64_t c0, std::int64_t c1) {
    ZH_DCHECK_BOUNDS(r, rows_);
    ZH_ASSERT(0 <= c0 && c0 <= c1 && c1 <= cols_, "run [", c0, ", ", c1,
              ") outside the raster's ", cols_, " columns");
    const std::optional<CellValue> nodata = nodata_;
    const BinIndex bins = bins_;
    BinCount* const row = row_;
    std::uint64_t counted =
        tally_.counted + static_cast<std::uint64_t>(c1 - c0);
    std::uint64_t clamped = tally_.clamped;
    const CellValue* cell = cells_ + r * cols_ + c0;
    const CellValue* const end = cells_ + r * cols_ + c1;
    for (; cell != end; ++cell) {
      const CellValue v = *cell;
      if (nodata && v == *nodata) {
        --counted;
        continue;
      }
      ++row[bin_index(v, bins, clamped)];
    }
    tally_ = {counted, clamped};
  }

  [[nodiscard]] const ZoneRowTally& tally() const { return tally_; }

 private:
  const CellValue* cells_;
  std::int64_t rows_;
  std::int64_t cols_;
  std::optional<CellValue> nodata_;
  BinIndex bins_;
  BinCount* row_;
  ZoneRowTally tally_;
};

/// Launch the zone-row kernel over `groups`: one block per chunk of
/// plan_zone_chunks(groups, device.concurrency()), each calling
/// `count_chunk(chunk, row)`, which adds the chunk's cells through `row`.
/// Every zone of `groups` needs a row in `per_zone` and must head at most
/// one group, since an owned chunk increments its row without atomics
/// (build_pairing_groups emits each class's groups in increasing zone
/// order). Accumulates into `per_zone`; returns the launch's tally.
template <typename CountChunk>
ZoneRowTally count_zone_rows(Device& device, const DemRaster& raster,
                             const PolygonTileGroups& groups,
                             HistogramSet& per_zone,
                             const CountChunk& count_chunk) {
  for (const PolygonId pid : groups.pid_v) {
    ZH_REQUIRE(pid < per_zone.groups(), "zone ", pid,
               " has no histogram row (", per_zone.groups(), " zones)");
  }
  const std::vector<ZoneChunk> chunks =
      plan_zone_chunks(groups, device.concurrency());
  const BinIndex bins = per_zone.bins();
  BinCount* const rows = per_zone.flat().data();
  std::atomic<std::uint64_t> counted{0};
  std::atomic<std::uint64_t> clamped{0};
  device.launch(chunks.size(), [&](std::size_t block) {
    ZH_DCHECK_BOUNDS(block, chunks.size());
    const ZoneChunk& chunk = chunks[block];
    BinCount* const zone_row =
        rows + static_cast<std::size_t>(chunk.pid) * bins;
    std::vector<BinCount> priv;
    if (!chunk.owned) priv.assign(bins, 0);
    ZoneRow row(raster, bins, chunk.owned ? zone_row : priv.data());
    count_chunk(chunk, row);
    if (!chunk.owned) {
      for (BinIndex b = 0; b < bins; ++b) {
        if (priv[b] != 0) atomic_add(&zone_row[b], priv[b]);
      }
    }
    counted.fetch_add(row.tally().counted, std::memory_order_relaxed);
    clamped.fetch_add(row.tally().clamped, std::memory_order_relaxed);
  });
  return {counted.load(), clamped.load()};
}

}  // namespace zh
