#include "core/zone_rows.hpp"

#include <algorithm>

namespace zh {

namespace {

/// Counts from one sub-row to the next: the bins rounded up to a 64-byte
/// line, plus one line if that is a multiple of 512 counts (2 KiB). Two
/// of the four sub-rows would otherwise start a multiple of 4 KiB apart,
/// where a store to one bin of one and a load of the same bin of the
/// other alias in the core's store-to-load check.
std::size_t sub_row_stride(BinIndex bins) {
  std::size_t stride = (std::size_t{bins} + 15) / 16 * 16;
  if (stride % 512 == 0) stride += 16;
  return stride;
}

/// The calling thread's scratch, at least `counts` long. It reads zero
/// between chunks (ZoneRow's fold and destructor zero what they used).
BinCount* thread_scratch(std::size_t counts) {
  thread_local std::vector<BinCount> scratch;
  if (scratch.size() < counts) scratch.resize(counts);
  return scratch.data();
}

}  // namespace

std::vector<ZoneChunk> plan_zone_chunks(const PolygonTileGroups& groups,
                                        std::size_t workers) {
  // A group holding more than its share of the tiles would run on one
  // thread while the others idle (a whole-raster AOI, a coarse zone):
  // split it into near-equal contiguous chunks of at most `share` tiles.
  const std::uint64_t threads = std::max<std::uint64_t>(1, workers);
  const std::uint64_t share = (groups.pair_count() + threads - 1) / threads;
  std::vector<ZoneChunk> chunks;
  chunks.reserve(groups.group_count());
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const PolygonId pid = groups.pid_v[g];
    const std::uint64_t pos = groups.pos_v[g];
    const std::uint64_t num = groups.num_v[g];
    ZH_ASSERT(pos + num <= groups.pair_count(), "group tile slice [", pos,
              ", ", pos + num, ") exceeds pair count ", groups.pair_count());
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
  return chunks;
}

ChunkCounting chunk_counting(const ZoneChunk& chunk,
                             const TilingScheme& tiling, BinIndex bins) {
  const auto rows = static_cast<std::uint64_t>(tiling.raster_rows());
  const auto cols = static_cast<std::uint64_t>(tiling.raster_cols());
  const auto tile = static_cast<std::uint64_t>(tiling.tile_size());
  const std::uint64_t tile_cells =
      std::min(tile, rows) * std::min(tile, cols);
  if (chunk.num * tile_cells >= 16 * std::uint64_t{bins} ||
      rows * cols > kMaxBinCount) {
    return ChunkCounting::kSubRows;
  }
  return chunk.owned ? ChunkCounting::kDirect : ChunkCounting::kScratchRow;
}

ZoneRow::ZoneRow(const DemRaster& raster, BinIndex bins,
                 const ZoneChunk& chunk, BinCount* zone_row,
                 ChunkCounting counting)
    : cells_(raster.cells().data()),
      rows_(raster.rows()),
      cols_(raster.cols()),
      nodata_(raster.nodata()),
      bins_(bins),
      zone_(chunk.pid),
      owned_(chunk.owned),
      counting_(counting),
      zone_row_(zone_row) {
  switch (counting) {
    case ChunkCounting::kDirect:
      ZH_ASSERT(owned_, "a split chunk of zone ", zone_,
                " cannot count straight into the shared zone row");
      lanes_.fill(zone_row);
      break;
    case ChunkCounting::kScratchRow:
      scratch_rows_ = 1;
      lanes_.fill(thread_scratch(bins));
      break;
    case ChunkCounting::kSubRows: {
      scratch_rows_ = lanes_.size();
      const std::size_t stride = sub_row_stride(bins);
      BinCount* const rows = thread_scratch(lanes_.size() * stride);
      for (std::size_t k = 0; k < lanes_.size(); ++k) {
        lanes_[k] = rows + k * stride;
      }
      break;
    }
  }
}

ZoneRow::~ZoneRow() {
  // Counts an exception left between a count and the end of its fold.
  if (pending_ == 0) return;
  for (std::size_t k = 0; k < scratch_rows_; ++k) {
    std::fill_n(lanes_[k], bins_, BinCount{0});
  }
}

void ZoneRow::fold() {
  if (pending_ == 0) return;  // a direct chunk, or nothing since the last
  for (BinIndex b = 0; b < bins_; ++b) {
    BinCount64 sum = 0;
    for (std::size_t k = 0; k < scratch_rows_; ++k) {
      sum += lanes_[k][b];
      lanes_[k][b] = 0;
    }
    if (sum == 0) continue;
    // pending_ bounds the sum, so it fits one BinCount.
    const BinCount held =
        owned_ ? zone_row_[b]
               : atomic_add(&zone_row_[b], static_cast<BinCount>(sum));
    if (held > kMaxBinCount - sum) throw_count_overflow(zone_, b, held, sum);
    if (owned_) zone_row_[b] = static_cast<BinCount>(held + sum);
  }
  pending_ = 0;
}

}  // namespace zh
