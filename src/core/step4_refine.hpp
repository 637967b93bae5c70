// Step 4: cell-in-polygon refinement for boundary tiles (Sec. III.D,
// Fig. 5).
//
// One device block per intersect polygon group (or per pair, see
// RefineGranularity). Two strategies classify the cells of a boundary
// tile:
//
//  * kBrute -- the paper's kernel verbatim: every cell center goes
//    through the ray-crossing test against the polygon's flattened (SoA)
//    vertex arrays, O(cells x edges) per tile.
//  * kScanline -- row-coherent refinement: a y-banded edge index
//    (geom/edge_index) over the zones that own a boundary tile yields
//    the edges crossing each raster row's cell-center scanline; their
//    sorted x-intercepts convert the row into inside/outside cell runs,
//    O(E_row log E_row + cols) per row. Intercepts and the parity rule
//    come from geom/pip.hpp's scanline_crossing, which the brute test
//    calls too, so histograms are bit-identical to kBrute.
//  * kAuto (ZonalConfig's default) -- either of the two, chosen per
//    launch by edge density.
//
// This step dominates end-to-end runtime in the paper (Table 2); its
// brute cost is proportional to boundary-tile cells x polygon vertices,
// which is what the tile-size ablation trades against Step 1 and what
// the scanline path collapses to per-row work.
#pragma once

#include <cstdint>

#include "core/histogram.hpp"
#include "core/step2_pairing.hpp"
#include "device/device.hpp"
#include "geom/soa.hpp"
#include "grid/raster.hpp"
#include "grid/tiling.hpp"

namespace zh {

/// Block-scheduling granularity of the refinement kernel.
///
/// kPolygonGroup is the paper's Fig.-5 kernel: one block per polygon,
/// looping its boundary tiles -- no atomics (each block owns its output
/// row), but a polygon with many boundary tiles serializes inside one
/// block, the intra-step imbalance behind the paper's Sec.-IV.C
/// observations. kPolygonTile launches one block per (polygon, tile)
/// pair: finer, self-balancing, at the cost of atomic histogram updates
/// (several blocks share a polygon's row). Results are identical.
enum class RefineGranularity : std::uint8_t {
  kPolygonGroup,
  kPolygonTile,
};

/// Cell-classification strategy of the refinement kernel. kAuto picks
/// per launch from the measured edges-per-pair density: scanline wins
/// once sorting a row's few intercepts beats testing every edge for
/// every cell (see DESIGN.md, "Refinement strategies").
enum class RefineStrategy : std::uint8_t {
  kBrute,
  kScanline,
  kAuto,
};

/// Work counters from the refinement kernel (feed the performance model
/// and the ablation benches).
struct RefineCounters {
  std::uint64_t cell_tests = 0;   ///< cells classified (strategy-invariant)
  std::uint64_t edge_tests = 0;   ///< crossing predicates actually evaluated
  std::uint64_t cells_counted = 0;  ///< cells found inside
  std::uint64_t rows_scanned = 0;   ///< scanline rows processed (0 = brute)
  std::uint64_t run_cells = 0;      ///< cells classified via runs (0 = brute)
  std::uint64_t values_clamped = 0;  ///< counted cells folded into the top bin
  RefineStrategy strategy = RefineStrategy::kBrute;  ///< strategy executed
};

/// Run cell-in-polygon tests for every (cell, polygon) combination in the
/// intersect groups, accumulating hits into `polygon_hist`. Both
/// granularities support every strategy and produce bit-identical
/// histograms. Callers pass both knobs: the library default lives in
/// ZonalConfig alone.
RefineCounters refine_boundary_tiles(
    Device& device, const PolygonTileGroups& intersect,
    const PolygonSoA& soa, const DemRaster& raster,
    const TilingScheme& tiling, HistogramSet& polygon_hist,
    RefineGranularity granularity, RefineStrategy strategy);

}  // namespace zh
