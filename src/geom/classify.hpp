// Polygon-vs-box classification: the tile-in-polygon test of Step 2
// (Sec. III.B). Each (tile, polygon) pair resolves to one of three cases:
// outside (0), inside (1) or intersect (2). The paper performs this phase
// on the CPU with exact computational geometry ("practically, we can
// realize this step on CPUs using well-established computational geometry
// libraries"); this module is that library. classify_box defines the
// relation one pair at a time; Step 2 computes the same relation for all
// of a zone's tiles at once (core/step2_pairing), and its tests hold it
// to classify_box. segment_intersects_box is shared by both.
#pragma once

#include "common/types.hpp"
#include "geom/polygon.hpp"
#include "grid/geotransform.hpp"

namespace zh {

/// True if segment ab intersects (or lies inside) the axis-aligned box.
[[nodiscard]] bool segment_intersects_box(const GeoPoint& a,
                                          const GeoPoint& b,
                                          const GeoBox& box);

/// Exact relation between `box` and `poly` under even-odd semantics:
///  * kOutside   -- the box shares no interior with the polygon;
///  * kInside    -- the box is completely inside the polygon;
///  * kIntersect -- the polygon boundary crosses the box.
/// Boundary-touching cases resolve to kIntersect (safe: intersecting
/// tiles fall through to exact per-cell tests in Step 4, so conservative
/// answers never change the final histogram, only the work split).
[[nodiscard]] TileRelation classify_box(const Polygon& poly,
                                        const GeoBox& box);

/// classify_box with the polygon's MBR precomputed.
[[nodiscard]] TileRelation classify_box(const Polygon& poly,
                                        const GeoBox& poly_mbr,
                                        const GeoBox& box);

}  // namespace zh
