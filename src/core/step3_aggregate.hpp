// Step 3: aggregate completely-inside per-tile histograms into
// per-polygon histograms (Sec. III.C, Fig. 4 right).
//
// One device block per polygon group: threads stride over histogram bins
// (outer loop), and for each bin iterate the polygon's inside tiles
// (inner loop), accumulating per-tile counts into the polygon histogram.
// No atomics needed: each polygon appears in exactly one group, so one
// block exclusively owns each output row -- the property the paper's
// UpdateHistKernel relies on. The executor never builds the per-tile
// table this step reads: it counts inside tiles straight into zone rows
// (count_inside_tiles in core/step1_tile_hist.hpp).
#pragma once

#include "core/histogram.hpp"
#include "core/step2_pairing.hpp"
#include "device/device.hpp"

namespace zh {

/// Add inside-tile histograms into `polygon_hist` (groups = polygons,
/// pre-sized by the caller; accumulates, does not clear).
/// Read only by perfbench's paper-order replay, not by the executor.
void aggregate_inside_tiles(Device& device,
                            const PolygonTileGroups& inside,
                            const HistogramSet& tile_hist,
                            HistogramSet& polygon_hist);

}  // namespace zh
