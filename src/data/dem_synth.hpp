// Synthetic DEM generation.
//
// Stands in for the NASA SRTM 30 m CONUS rasters (the paper's input; 20.1
// billion cells, not shippable here). The generator produces fractional-
// Brownian-motion value-noise terrain: spatially correlated elevations in
// [0, max_value], which reproduces the two properties the pipeline is
// sensitive to -- per-tile value locality (drives BQ-Tree compression and
// histogram sparsity) and a realistic elevation distribution (most values
// well below the bin ceiling, as with real SRTM data where almost all
// cells are under 5000 m).
//
// Generation is deterministic in (seed, geotransform): the elevation at a
// cell depends only on its geographic position, so two rasters covering
// adjacent areas agree along their shared border -- required for the
// multi-raster CONUS layout and the cluster partitioning experiments.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "grid/raster.hpp"

namespace zh {

struct DemParams {
  std::uint64_t seed = 42;
  int octaves = 5;           ///< fBm octave count
  double base_scale = 2.0;   ///< feature size of the lowest octave, degrees
  double persistence = 0.5;  ///< per-octave amplitude falloff
  CellValue max_value = 4999;  ///< elevations span [0, max_value]
};

/// Generate a rows x cols DEM under `transform` (rows generated in
/// parallel on the global pool).
[[nodiscard]] DemRaster generate_dem(std::int64_t rows, std::int64_t cols,
                                     const GeoTransform& transform,
                                     const DemParams& params = {});

/// Elevation at a geographic position (the pure function the raster
/// samples; exposed for border-consistency tests).
[[nodiscard]] CellValue dem_elevation(double x, double y,
                                      const DemParams& params);

}  // namespace zh
