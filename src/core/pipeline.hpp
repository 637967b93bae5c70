// The end-to-end zonal-histogramming pipeline (Fig. 1 of the paper).
//
// Every entry point runs Steps 0-4 through one filter-first executor:
// make_plan runs the Step-2 pairing first (tile boxes only, no cell
// data) and lists the zones it pairs with a tile; execute_plan gives
// each of those zones a histogram row, and no other zone one, then
// counts the cells of each zone's completely-inside tiles straight into
// the zone's row (the paper's Steps 1 and 3 in one pass, with no
// per-tile table) and refines the boundary tiles (Step 4). Compressed
// input decodes only the tiles some zone touches (Step 0). Outputs are
// identical to the paper's all-tiles order; only the undemanded work is
// skipped. Each run reports
// per-step wall times (the Table-2 breakdown; the fused pass is timed as
// Step 1 and Step 3 reads 0) and work counters (input to the
// performance model and the ablation benches).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bqtree/compressed_raster.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/histogram.hpp"
#include "core/step1_tile_hist.hpp"
#include "core/step2_pairing.hpp"
#include "core/step4_refine.hpp"
#include "device/device.hpp"
#include "geom/polygon.hpp"
#include "geom/soa.hpp"
#include "grid/raster.hpp"
#include "grid/tiling.hpp"

namespace zh {

struct ZonalConfig {
  std::int64_t tile_size = 360;  ///< cells per tile edge (paper: 0.1 deg)
  BinIndex bins = 5000;          ///< histogram bins (paper: 5000)
  /// Read by perfbench's Step-1 replay and the journal fingerprint only.
  CountMode count_mode = CountMode::kAtomic;
  /// Read by perfbench's Step-1 replay only; the executor ignores it.
  CellOrder cell_order = CellOrder::kRowMajor;
  /// Read by perfbench's Step-4 replay only; selects nothing.
  RefineGranularity refine_granularity = RefineGranularity::kPolygonGroup;
  /// Step-4 cell classification path. The paper-reproduction benches pin
  /// kBrute, the kernel PerfModel's Step-4 rate is calibrated on.
  RefineStrategy refine_strategy = RefineStrategy::kAuto;
};

/// Work accounting of one pipeline run; all quantities exact.
struct WorkCounters {
  std::uint64_t cells_total = 0;        ///< input raster cells
  std::uint64_t tiles_total = 0;
  std::uint64_t candidate_pairs = 0;    ///< Step-2 inside + intersect pairs
  std::uint64_t pairs_inside = 0;
  std::uint64_t pairs_intersect = 0;
  std::uint64_t polygon_vertices = 0;
  /// The paper's Step-3 work, inside pairs x bins, which PerfModel and
  /// the Table-2 projection charge; the executor's fused inside count
  /// does no bin adds.
  std::uint64_t aggregate_bin_adds = 0;
  std::uint64_t pip_cell_tests = 0;     ///< Step 4 cell tests
  std::uint64_t pip_edge_tests = 0;     ///< Step 4 edge evaluations
  std::uint64_t pip_rows_scanned = 0;   ///< Step 4 scanline rows (0 = brute)
  std::uint64_t pip_run_cells = 0;      ///< Step 4 run-classified cells
  /// (cell, zone) attributions the zone-row kernels counted: the sum of
  /// the zone histograms.
  std::uint64_t cells_in_polygons = 0;
  /// Of those (cell, zone) attributions, the ones whose value folded
  /// into the top bin (value >= bins): a nonzero count means --bins
  /// is below the raster's value range.
  std::uint64_t values_clamped = 0;
  std::uint64_t compressed_bytes = 0;   ///< Step 0 input volume (if any)
  std::uint64_t raw_bytes = 0;

  WorkCounters& operator+=(const WorkCounters& o);
};

struct ZonalResult {
  HistogramSet per_polygon;  ///< holds the zones the run's plan pairs
  StepTimes times;
  WorkCounters work;
};

namespace obs {
struct RunReport;
}  // namespace obs

/// Flatten `work` into `report.counters` under the canonical names used
/// by the zh-run-report-v1 schema (cells_total, pairs_inside, ...).
void append_work_counters(obs::RunReport& report, const WorkCounters& work);

/// One zone layer's Step-2 pairing against one tiling. Built from tile
/// boxes alone, so it can run before any cell is read; one plan serves
/// every co-registered band.
struct ZonalPlan {
  TilingScheme tiling{0, 0, 1};
  PairingResult pairing;
  std::size_t zones = 0;  ///< zones in the layer
  /// The zones the pairing pairs with at least one tile, increasing:
  /// the only zones a run of the plan can count a cell into.
  std::vector<PolygonId> paired_zones;
  std::uint64_t zone_vertices = 0;
  double seconds = 0.0;  ///< Step-2 wall time
};

/// Step 2: pair `polygons` with the tiles of `tiling`.
[[nodiscard]] ZonalPlan make_plan(const PolygonSet& polygons,
                                  const TilingScheme& tiling,
                                  const GeoTransform& transform);

/// Steps 1, 3 and 4 of `plan` over `raster`, which must match the plan's
/// tiling; only the cells of the plan's tiles are read. Replaces
/// `result.per_polygon` with config.bins-bin histograms that hold a row
/// for each of plan.paired_zones and for no other zone of the layer
/// (those read as zeros), and adds the step times and per-cell work into
/// `result`; Step 2's time and the pairing counters are set, not added,
/// so a plan executed once per band charges them once.
void execute_plan(Device& device, const ZonalPlan& plan,
                  const DemRaster& raster, const PolygonSoA& soa,
                  const ZonalConfig& config, ZonalResult& result);

class ZonalPipeline {
 public:
  ZonalPipeline(Device& device, ZonalConfig config)
      : device_(&device), config_(config) {
    ZH_REQUIRE(config.tile_size >= 1, "tile size must be positive");
    ZH_REQUIRE(config.bins >= 1, "bin count must be positive");
  }

  [[nodiscard]] const ZonalConfig& config() const { return config_; }

  /// Run Steps 1-4 on an uncompressed raster (Step 0 time = 0).
  [[nodiscard]] ZonalResult run(const DemRaster& raster,
                                const PolygonSet& polygons) const;

  /// Run Steps 0-4 from BQ-Tree input: plan, decode only the tiles the
  /// plan touches (timed as Step 0), then execute. The compressed
  /// raster's tiling must use this pipeline's tile size.
  [[nodiscard]] ZonalResult run(const BqCompressedRaster& compressed,
                                const PolygonSet& polygons) const;

  /// Run Steps 1-4 with a pre-built SoA (lets callers amortize the
  /// flattening across partitions; the SoA must match `polygons`).
  [[nodiscard]] ZonalResult run(const DemRaster& raster,
                                const PolygonSet& polygons,
                                const PolygonSoA& soa) const;

 private:
  Device* device_;
  ZonalConfig config_;
};

struct LazyCounters {
  std::uint64_t tiles_total = 0;
  std::uint64_t tiles_decoded = 0;      ///< inside + intersect tiles
  std::uint64_t tiles_histogrammed = 0; ///< distinct tiles inside a zone
  std::uint64_t cells_decoded = 0;
};

/// ZonalPipeline(device, config).run(compressed, polygons) that also
/// reports, in `counters`, how much decode and Step-1 work the plan
/// skipped.
[[nodiscard]] ZonalResult run_lazy(Device& device,
                                   const BqCompressedRaster& compressed,
                                   const PolygonSet& polygons,
                                   const ZonalConfig& config,
                                   LazyCounters* counters = nullptr);

}  // namespace zh
