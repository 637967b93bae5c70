// Shared helpers for the test suite: seeded random rasters, random
// simple polygons (star polygons are simple by construction, so PIP
// ground truth is well-defined), a .bq raster with truncated tile
// streams, and a bounded typed receive for run_cluster bodies.
#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <vector>

#include "bqtree/compressed_raster.hpp"
#include "cluster/comm.hpp"
#include "geom/polygon.hpp"
#include "grid/raster.hpp"

namespace zh::test {

/// Deterministic random raster with values in [0, max_value].
inline DemRaster random_raster(std::int64_t rows, std::int64_t cols,
                               std::uint32_t seed, CellValue max_value,
                               const GeoTransform& t = GeoTransform()) {
  DemRaster r(rows, cols, t);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint32_t> dist(0, max_value);
  for (CellValue& v : r.cells()) v = static_cast<CellValue>(dist(rng));
  return r;
}

/// Random simple (star-shaped) ring around (cx, cy): vertices at sorted
/// angles with radii in [r_min, r_max].
inline Ring random_star_ring(std::mt19937& rng, double cx, double cy,
                             double r_min, double r_max, int vertices) {
  std::uniform_real_distribution<double> radius(r_min, r_max);
  std::vector<double> angles(static_cast<std::size_t>(vertices));
  std::uniform_real_distribution<double> angle(0.0,
                                               2.0 * std::numbers::pi);
  for (double& a : angles) a = angle(rng);
  std::sort(angles.begin(), angles.end());
  Ring ring;
  ring.reserve(angles.size());
  for (const double a : angles) {
    const double r = radius(rng);
    ring.push_back({cx + r * std::cos(a), cy + r * std::sin(a)});
  }
  return ring;
}

/// Random star polygon, optionally with a concentric hole (multi-ring).
inline Polygon random_star_polygon(std::mt19937& rng, double cx, double cy,
                                   double r_max, int vertices,
                                   bool with_hole = false) {
  Polygon poly({random_star_ring(rng, cx, cy, 0.5 * r_max, r_max,
                                 vertices)});
  if (with_hole) {
    // Hole oriented clockwise so winding-number semantics agree with
    // even-odd parity (parity itself is orientation-independent).
    Ring hole = random_star_ring(rng, cx, cy, 0.1 * r_max, 0.3 * r_max,
                                 std::max(3, vertices / 2));
    std::reverse(hole.begin(), hole.end());
    poly.add_ring(std::move(hole));
  }
  return poly;
}

/// A small set of star polygons scattered over `extent`.
inline PolygonSet random_polygon_set(std::uint32_t seed,
                                     const GeoBox& extent, int count,
                                     bool holes_every_other = false) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> ux(extent.min_x, extent.max_x);
  std::uniform_real_distribution<double> uy(extent.min_y, extent.max_y);
  std::uniform_int_distribution<int> nverts(5, 24);
  const double r_max =
      0.25 * std::min(extent.width(), extent.height());
  PolygonSet set;
  for (int i = 0; i < count; ++i) {
    const bool hole = holes_every_other && (i % 2 == 1);
    set.add(random_star_polygon(rng, ux(rng), uy(rng), r_max, nverts(rng),
                                hole));
  }
  return set;
}

/// `raster` with each tile's payload cut to half its bytes. The result is
/// a well-formed container (write_bq gives it fresh CRCs, so read_bq
/// accepts it), but every tile with a payload ends before its last node.
inline BqCompressedRaster halve_tile_streams(const BqCompressedRaster& raster) {
  std::vector<BqEncodedTile> tiles;
  for (TileId id = 0; id < raster.tiling().tile_count(); ++id) {
    tiles.push_back(raster.tile(id));
    tiles.back().payload.resize(tiles.back().payload.size() / 2);
  }
  return BqCompressedRaster::from_tiles(raster.tiling(), raster.transform(),
                                        std::move(tiles));
}

/// Receive the next `tag` message from `src` as T elements inside a
/// run_cluster body; throws (failing the run) if it has not arrived
/// within 30 s.
template <typename T>
std::vector<T> recv(Communicator& comm, RankId src, int tag) {
  std::vector<T> out;
  comm.recv<T>(src, tag, Deadline::after_ms(30000), out).throw_if_error();
  return out;
}

}  // namespace zh::test
