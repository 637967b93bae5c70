// Affine georeferencing of a raster: maps (row, col) cell indices to
// geographic coordinates, in the "north-up" form used by SRTM DEM tiles
// (row 0 at the northern edge, y decreasing with row index).
#pragma once

#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace zh {

/// Geographic point (degrees or any planar CRS unit).
struct GeoPoint {
  double x = 0.0;
  double y = 0.0;

  bool operator==(const GeoPoint&) const = default;
};

/// Axis-aligned geographic box; min/max in both axes.
struct GeoBox {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  [[nodiscard]] double width() const { return max_x - min_x; }
  [[nodiscard]] double height() const { return max_y - min_y; }

  [[nodiscard]] bool contains(const GeoPoint& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }
  [[nodiscard]] bool contains(const GeoBox& b) const {
    return b.min_x >= min_x && b.max_x <= max_x && b.min_y >= min_y &&
           b.max_y <= max_y;
  }
  [[nodiscard]] bool intersects(const GeoBox& b) const {
    return !(b.min_x > max_x || b.max_x < min_x || b.min_y > max_y ||
             b.max_y < min_y);
  }
  /// Grow to cover `p`.
  void expand(const GeoPoint& p) {
    if (p.x < min_x) min_x = p.x;
    if (p.x > max_x) max_x = p.x;
    if (p.y < min_y) min_y = p.y;
    if (p.y > max_y) max_y = p.y;
  }
};

/// North-up affine transform: cell (row, col)'s top-left corner sits at
/// (origin_x + col*cell_w, origin_y - row*cell_h). For 30 m SRTM,
/// cell_w == cell_h == 1/3600 degree.
class GeoTransform {
 public:
  GeoTransform() = default;
  GeoTransform(double origin_x, double origin_y, double cell_w, double cell_h)
      : origin_x_(origin_x), origin_y_(origin_y), cell_w_(cell_w),
        cell_h_(cell_h) {
    ZH_REQUIRE(cell_w > 0 && cell_h > 0, "cell size must be positive");
  }

  [[nodiscard]] double origin_x() const { return origin_x_; }
  [[nodiscard]] double origin_y() const { return origin_y_; }
  [[nodiscard]] double cell_w() const { return cell_w_; }
  [[nodiscard]] double cell_h() const { return cell_h_; }

  /// Geographic position of the *center* of cell (row, col) -- the point
  /// Step 4 uses for cell-in-polygon tests (Sec. III.D).
  [[nodiscard]] GeoPoint cell_center(std::int64_t row,
                                     std::int64_t col) const {
    return {origin_x_ + (static_cast<double>(col) + 0.5) * cell_w_,
            origin_y_ - (static_cast<double>(row) + 0.5) * cell_h_};
  }

  /// Top-left corner of cell (row, col).
  [[nodiscard]] GeoPoint cell_corner(std::int64_t row,
                                     std::int64_t col) const {
    return {origin_x_ + static_cast<double>(col) * cell_w_,
            origin_y_ - static_cast<double>(row) * cell_h_};
  }

  /// Geographic bounding box of a (rows x cols) raster under this
  /// transform.
  [[nodiscard]] GeoBox extent(std::int64_t rows, std::int64_t cols) const {
    return {origin_x_, origin_y_ - static_cast<double>(rows) * cell_h_,
            origin_x_ + static_cast<double>(cols) * cell_w_, origin_y_};
  }

  /// Column index containing geographic x (floor semantics; may be out of
  /// the raster's range -- callers clamp). Saturates at +-kIndexLimit, so
  /// a far but finite x still lands on the correct side of the raster.
  [[nodiscard]] std::int64_t x_to_col(double x) const {
    return floor_index((x - origin_x_) / cell_w_);
  }
  /// Row index containing geographic y (same semantics).
  [[nodiscard]] std::int64_t y_to_row(double y) const {
    return floor_index((origin_y_ - y) / cell_h_);
  }

  /// Bound of x_to_col/y_to_row: 2^62, far past any raster, and far
  /// enough inside the int64_t range that a caller's +-k cannot wrap.
  static constexpr std::int64_t kIndexLimit = std::int64_t{1} << 62;

  /// Transform for a sub-window whose top-left cell is (row0, col0).
  [[nodiscard]] GeoTransform for_window(std::int64_t row0,
                                        std::int64_t col0) const {
    GeoPoint c = cell_corner(row0, col0);
    return GeoTransform(c.x, c.y, cell_w_, cell_h_);
  }

  bool operator==(const GeoTransform&) const = default;

 private:
  /// floor(v) as an index, saturated in double before the cast: a cast
  /// of a value outside int64_t's range is undefined (x86 yields
  /// INT64_MIN, which puts a point far east of the raster west of it).
  static std::int64_t floor_index(double v) {
    constexpr double kLimit = static_cast<double>(kIndexLimit);
    const double f = std::floor(v);
    if (!(f < kLimit)) return kIndexLimit;  // also +inf
    if (!(f > -kLimit)) return -kIndexLimit;
    return static_cast<std::int64_t>(f);
  }

  double origin_x_ = 0.0;
  double origin_y_ = 0.0;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
};

}  // namespace zh
