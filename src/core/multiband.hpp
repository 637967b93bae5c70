// Zonal histogramming over multi-band / temporal raster stacks.
//
// The paper's introduction motivates exactly this workload: GOES-R
// produces 88 daily coverages in 16 bands, WRF emits large temporal
// stacks -- and per-zone histograms of each band/time step are the
// feature vectors downstream analysis consumes. The tile-based design
// pays its Step-2 spatial filter ONCE per stack: the pairing depends
// only on geometry (tiling x polygons), so every subsequent band reuses
// the same inside/intersect dispatch arrays and only the inside count
// (Steps 1 and 3) and Step 4 run per band.
#pragma once

#include <span>
#include <vector>

#include "core/pipeline.hpp"

namespace zh {

struct SeriesResult {
  /// One histogram set per band, in input order; each holds the zones
  /// the stack's one plan pairs.
  std::vector<HistogramSet> per_band;
  StepTimes times;    ///< Step 2 counted once; Steps 1/3/4 summed
  WorkCounters work;  ///< pairing counters once; cell counters summed
};

/// Run the pipeline over co-registered bands (same dims and
/// geotransform; enforced). Equivalent to one run() per band but with
/// the Step-2 pairing amortized across the stack.
[[nodiscard]] SeriesResult run_series(Device& device,
                                      std::span<const DemRaster> bands,
                                      const PolygonSet& polygons,
                                      const ZonalConfig& config);

}  // namespace zh
