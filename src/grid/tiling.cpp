#include "grid/tiling.hpp"

#include <algorithm>

namespace zh {

TileRange TilingScheme::tile_range_covering(
    const GeoBox& b, const GeoTransform& transform) const {
  if (tiles_x_ == 0 || tiles_y_ == 0) return {};

  // Convert the box to cell indices, clamp to the raster, then to tile
  // indices.
  std::int64_t c0 = transform.x_to_col(b.min_x);
  std::int64_t c1 = transform.x_to_col(b.max_x);
  std::int64_t r0 = transform.y_to_row(b.max_y);  // north edge -> min row
  std::int64_t r1 = transform.y_to_row(b.min_y);

  // Boxes entirely off the raster must not clamp onto edge tiles.
  if (c1 < 0 || c0 >= cols_ || r1 < 0 || r0 >= rows_) return {};

  c0 = std::clamp<std::int64_t>(c0, 0, cols_ - 1);
  c1 = std::clamp<std::int64_t>(c1, 0, cols_ - 1);
  r0 = std::clamp<std::int64_t>(r0, 0, rows_ - 1);
  r1 = std::clamp<std::int64_t>(r1, 0, rows_ - 1);
  if (c1 < c0 || r1 < r0) return {};
  return {.ty0 = r0 / tile_size_,
          .ty1 = r1 / tile_size_,
          .tx0 = c0 / tile_size_,
          .tx1 = c1 / tile_size_};
}

std::vector<TileId> TilingScheme::tiles_covering(
    const GeoBox& b, const GeoTransform& transform) const {
  const TileRange range = tile_range_covering(b, transform);
  std::vector<TileId> out;
  out.reserve(static_cast<std::size_t>(range.rows() * range.cols()));
  for (std::int64_t ty = range.ty0; ty <= range.ty1; ++ty) {
    for (std::int64_t tx = range.tx0; tx <= range.tx1; ++tx) {
      out.push_back(tile_id(ty, tx));
    }
  }
  return out;
}

}  // namespace zh
