// Zone rasterization: burn polygon ids into a grid.
//
// The scanline machinery of the baselines, exposed as a standalone
// operator (the GDAL-rasterize analog), handy for exporting zone masks;
// cell-center semantics identical to every other operator in the library.
#pragma once

#include "common/types.hpp"
#include "geom/polygon.hpp"
#include "grid/raster.hpp"

namespace zh {

/// Raster of zone ids under `transform`: each cell holds the id of the
/// polygon containing its center, or kInvalidPolygon if none. Where
/// polygons overlap, the highest id wins (deterministic).
[[nodiscard]] Raster<PolygonId> rasterize_zones(
    const PolygonSet& polygons, std::int64_t rows, std::int64_t cols,
    const GeoTransform& transform);

}  // namespace zh
