#include "bqtree/compressed_raster.hpp"

#include <numeric>
#include <utility>

#include "device/thread_pool.hpp"
#include "obs/obs.hpp"

namespace zh {

BqCompressedRaster BqCompressedRaster::encode(const DemRaster& raster,
                                              std::int64_t tile_size) {
  ZH_REQUIRE(!raster.nodata().has_value(),
             "a .bq container cannot store the raster's nodata value (",
             *raster.nodata(), "); its nodata cells would be counted");
  ZH_TRACE_SPAN("bqtree.encode", "pipeline");
  BqCompressedRaster out(
      TilingScheme(raster.rows(), raster.cols(), tile_size),
      raster.transform());
  const std::size_t n = out.tiling_.tile_count();
  out.tiles_.resize(n);
  ThreadPool::global().parallel_for(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t t = b; t < e; ++t) {
      const TileId id = static_cast<TileId>(t);
      const CellWindow w = out.tiling_.tile_window(id);
      // Gather the tile's cells into a contiguous buffer, then encode.
      std::vector<CellValue> cells(
          static_cast<std::size_t>(w.cell_count()));
      for (std::int64_t r = 0; r < w.rows; ++r) {
        const auto src = raster.row(w.row0 + r).subspan(
            static_cast<std::size_t>(w.col0),
            static_cast<std::size_t>(w.cols));
        std::copy(src.begin(), src.end(),
                  cells.begin() + static_cast<std::size_t>(r * w.cols));
      }
      out.tiles_[t] = bq_encode(cells, static_cast<std::uint32_t>(w.rows),
                                static_cast<std::uint32_t>(w.cols));
    }
  });
  return out;
}

BqCompressedRaster BqCompressedRaster::from_tiles(
    const TilingScheme& tiling, const GeoTransform& transform,
    std::vector<BqEncodedTile> tiles, std::string source) {
  ZH_REQUIRE_IO(tiles.size() == tiling.tile_count(),
                "tile count does not match tiling: ", tiles.size(), " vs ",
                tiling.tile_count());
  for (TileId id = 0; id < tiles.size(); ++id) {
    const CellWindow w = tiling.tile_window(id);
    ZH_REQUIRE_IO(tiles[id].rows == static_cast<std::uint32_t>(w.rows) &&
                      tiles[id].cols == static_cast<std::uint32_t>(w.cols),
                  "tile ", id, " dims do not match the tiling window");
  }
  BqCompressedRaster out(tiling, transform);
  out.tiles_ = std::move(tiles);
  out.source_ = std::move(source);
  return out;
}

void BqCompressedRaster::decode_tile(TileId id,
                                     std::span<CellValue> out) const {
  try {
    bq_decode(tile(id), out);
  } catch (const IoError& e) {
    throw IoError(detail::format_parts(e.what(), " (tile ", id,
                                       source_.empty() ? "" : " of ",
                                       source_, ")"));
  }
}

DemRaster BqCompressedRaster::decode_all() const {
  std::vector<TileId> all(tiling_.tile_count());
  std::iota(all.begin(), all.end(), TileId{0});
  return decode_tiles(all);
}

DemRaster BqCompressedRaster::decode_tiles(
    std::span<const TileId> tiles) const {
  ZH_TRACE_SPAN("step0.decode", "pipeline");
  DemRaster raster(tiling_.raster_rows(), tiling_.raster_cols(), transform_);
  ThreadPool::global().parallel_for(
      tiles.size(), [&](std::size_t b, std::size_t e) {
        std::vector<CellValue> cells;
        for (std::size_t i = b; i < e; ++i) {
          const TileId id = tiles[i];
          const CellWindow w = tiling_.tile_window(id);
          cells.resize(static_cast<std::size_t>(w.cell_count()));
          decode_tile(id, cells);
          for (std::int64_t r = 0; r < w.rows; ++r) {
            std::copy(
                cells.begin() + static_cast<std::size_t>(r * w.cols),
                cells.begin() + static_cast<std::size_t>((r + 1) * w.cols),
                &raster.at(w.row0 + r, w.col0));
          }
        }
      });
  return raster;
}

std::size_t BqCompressedRaster::compressed_bytes() const {
  std::size_t n = 0;
  for (const auto& t : tiles_) n += t.compressed_bytes();
  return n;
}

std::size_t BqCompressedRaster::raw_bytes() const {
  std::size_t n = 0;
  for (const auto& t : tiles_) n += t.raw_bytes();
  return n;
}

}  // namespace zh
