// Tiling scheme: decomposes a raster into square tiles which double as an
// implicit grid-file spatial index (Sec. III.B: "tiles in a raster can
// naturally serve as a grid-file for spatial indexing").
//
// The paper sets the tile size to 0.1 x 0.1 degree == 360 x 360 SRTM cells;
// here the tile edge in cells is a parameter. Edge tiles may be partial
// (the raster's dimensions need not divide the tile size).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "grid/geotransform.hpp"
#include "grid/raster.hpp"

namespace zh {

/// Inclusive rectangle [ty0, ty1] x [tx0, tx1] of tile-grid coordinates;
/// empty when either span is.
struct TileRange {
  std::int64_t ty0 = 0;
  std::int64_t ty1 = -1;
  std::int64_t tx0 = 0;
  std::int64_t tx1 = -1;

  [[nodiscard]] bool empty() const { return ty1 < ty0 || tx1 < tx0; }
  [[nodiscard]] std::int64_t rows() const {
    return empty() ? 0 : ty1 - ty0 + 1;
  }
  [[nodiscard]] std::int64_t cols() const {
    return empty() ? 0 : tx1 - tx0 + 1;
  }
};

/// Square tiling of a rows x cols raster with tile edge `tile_size` cells.
/// Tile ids are row-major over the tile grid.
class TilingScheme {
 public:
  TilingScheme(std::int64_t raster_rows, std::int64_t raster_cols,
               std::int64_t tile_size)
      : rows_(raster_rows), cols_(raster_cols), tile_size_(tile_size) {
    ZH_REQUIRE(tile_size > 0, "tile size must be positive");
    ZH_REQUIRE(raster_rows >= 0 && raster_cols >= 0,
               "raster dims must be non-negative");
    tiles_y_ = static_cast<std::int64_t>(
        div_up(static_cast<std::size_t>(rows_),
               static_cast<std::size_t>(tile_size_)));
    tiles_x_ = static_cast<std::int64_t>(
        div_up(static_cast<std::size_t>(cols_),
               static_cast<std::size_t>(tile_size_)));
  }

  [[nodiscard]] std::int64_t raster_rows() const { return rows_; }
  [[nodiscard]] std::int64_t raster_cols() const { return cols_; }
  [[nodiscard]] std::int64_t tile_size() const { return tile_size_; }
  [[nodiscard]] std::int64_t tiles_x() const { return tiles_x_; }
  [[nodiscard]] std::int64_t tiles_y() const { return tiles_y_; }
  [[nodiscard]] std::size_t tile_count() const {
    return static_cast<std::size_t>(tiles_x_ * tiles_y_);
  }

  /// Row-major tile id of tile-grid coordinates (ty, tx).
  [[nodiscard]] TileId tile_id(std::int64_t ty, std::int64_t tx) const {
    ZH_REQUIRE(ty >= 0 && ty < tiles_y_ && tx >= 0 && tx < tiles_x_,
               "tile coordinate out of range");
    return static_cast<TileId>(ty * tiles_x_ + tx);
  }

  [[nodiscard]] std::int64_t tile_row(TileId id) const {
    return static_cast<std::int64_t>(id) / tiles_x_;
  }
  [[nodiscard]] std::int64_t tile_col(TileId id) const {
    return static_cast<std::int64_t>(id) % tiles_x_;
  }

  /// Cell window covered by a tile (edge tiles clipped to the raster).
  [[nodiscard]] CellWindow tile_window(TileId id) const {
    ZH_REQUIRE(id < tile_count(), "tile id out of range");
    const std::int64_t ty = tile_row(id);
    const std::int64_t tx = tile_col(id);
    CellWindow w;
    w.row0 = ty * tile_size_;
    w.col0 = tx * tile_size_;
    w.rows = std::min(tile_size_, rows_ - w.row0);
    w.cols = std::min(tile_size_, cols_ - w.col0);
    return w;
  }

  /// Geographic box of a tile under `transform`.
  [[nodiscard]] GeoBox tile_box(TileId id,
                                const GeoTransform& transform) const {
    const CellWindow w = tile_window(id);
    const GeoPoint tl = transform.cell_corner(w.row0, w.col0);
    const GeoPoint br = transform.cell_corner(w.row0 + w.rows,
                                              w.col0 + w.cols);
    return GeoBox{tl.x, br.y, br.x, tl.y};
  }

  /// The tiles the geographic box `b` covers, as a rectangle of the tile
  /// grid (the MBB rasterization of Sec. III.B). Floor semantics are
  /// conservative: a box edge exactly on a cell boundary pulls in the
  /// next cell, and a box reaching past the raster clamps to the edge
  /// tiles. A box entirely off the raster covers nothing.
  [[nodiscard]] TileRange tile_range_covering(
      const GeoBox& b, const GeoTransform& transform) const;

  /// The ids of tile_range_covering(b, transform), row-major.
  [[nodiscard]] std::vector<TileId> tiles_covering(
      const GeoBox& b, const GeoTransform& transform) const;

  bool operator==(const TilingScheme&) const = default;

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t tile_size_;
  std::int64_t tiles_x_ = 0;
  std::int64_t tiles_y_ = 0;
};

}  // namespace zh
