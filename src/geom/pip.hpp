// Point-in-polygon tests.
//
// The workhorse is Randolph Franklin's ray-crossing test (the paper's
// Sec. III.D / Fig. 5): a point is inside if a horizontal ray crosses the
// boundary an odd number of times. Two implementations are provided:
//   * object form over Polygon (per-ring, parity across rings) -- the CPU
//     reference used by baselines and tests;
//   * SoA form over PolygonSoA implementing the Fig. 5 kernel inner loop
//     verbatim, including the (0,0) ring-separator skip -- the form the
//     Step-4 device kernel executes.
// A winding-number implementation is included for cross-validation (the
// two agree for points not exactly on a boundary).
#pragma once

#include <optional>

#include "common/types.hpp"
#include "geom/polygon.hpp"
#include "geom/soa.hpp"

namespace zh {

/// The crossing rule of every ray-crossing path: the object and SoA
/// tests here, the Step-4 scanline refiner, the edge index that feeds it,
/// the zonal_scanline baseline and the Step-2 tile sweep. Edge
/// (x0, y0) -> (x1, y1) crosses the horizontal line y = py iff py lies in
/// its half-open y-span [min(y0, y1), max(y0, y1)), so a vertex on the
/// line counts for exactly one of its edges and a horizontal edge never
/// crosses. Returns the x of the crossing, or nothing. A point (px, py)
/// is inside iff an odd number of edges cross at some x > px. The
/// intercept divides between its product and its sum, so no
/// floating-point contraction can fuse it into a multiply-add, and every
/// caller computes the same bits.
[[nodiscard]] inline std::optional<double> scanline_crossing(
    double x0, double y0, double x1, double y1, double py) {
  if (!(((y0 <= py) && (py < y1)) || ((y1 <= py) && (py < y0)))) {
    return std::nullopt;
  }
  return (x1 - x0) * (py - y0) / (y1 - y0) + x0;
}

/// Ray-crossing test against a single ring (implicitly closed).
[[nodiscard]] bool point_in_ring(const Ring& ring, const GeoPoint& p);

/// Even-odd test against all rings of `poly`: holes subtract, disjoint
/// parts add, matching the paper's multi-ring semantics.
[[nodiscard]] bool point_in_polygon(const Polygon& poly, const GeoPoint& p);

/// Winding number of `poly` around `p` summed over rings (0 = outside for
/// simple polygons). For cross-validation only; prefer the parity tests.
[[nodiscard]] int winding_number(const Polygon& poly, const GeoPoint& p);

/// Fig. 5 inner loop: ray-crossing over the flattened vertex arrays of
/// polygon `pid`, skipping ring-separator sentinel edges.
[[nodiscard]] bool point_in_polygon_soa(const PolygonSoA& soa, PolygonId pid,
                                        double x, double y);

/// Same, over raw arrays (the exact kernel signature shape); `p_f`/`p_t`
/// bound polygon `pid`'s vertices as computed from ply_v.
[[nodiscard]] bool point_in_polygon_soa_raw(const double* x_v,
                                            const double* y_v,
                                            std::uint32_t p_f,
                                            std::uint32_t p_t, double x,
                                            double y);

/// Number of edges point_in_polygon_soa_raw actually evaluates for
/// [p_f, p_t) -- the flattened edge count minus the two skipped per
/// (0,0) ring separator. Feeds exact step4.pip_edge_tests accounting.
[[nodiscard]] std::uint32_t soa_tested_edges(const double* x_v,
                                             const double* y_v,
                                             std::uint32_t p_f,
                                             std::uint32_t p_t);

}  // namespace zh
