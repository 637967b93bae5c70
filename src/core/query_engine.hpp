// Multi-query batch engine: a catalog of rasters over the one executor.
//
// The serving shape (Raptor Zonal Statistics): many zonal queries arrive
// against a small catalog of large rasters. QueryEngine registers rasters
// once, then runs each query through the filter-first executor
// (core/pipeline.hpp) with the query's bin count: Step 2 pairs the
// query's zones with the raster's tiles, the cells of each zone's
// completely-inside tiles count straight into its histogram row (Steps 1
// and 3 in one pass) and Step 4 refines the boundary tiles. A query
// allocates only its zones x bins rows, never a per-tile table. Results
// are bit-identical to ZonalPipeline::run on the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "device/device.hpp"
#include "geom/polygon.hpp"
#include "grid/raster.hpp"

namespace zh {

/// Tile-cache statistics, kept only because perfbench/ still reads
/// them; the engine keeps no cache, so every field reads zero.
struct TileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes = 0;
};

struct QueryEngineConfig {
  /// Tile edge shared by every query.
  std::int64_t tile_size = 360;
  /// Step-4 strategy of every query.
  RefineStrategy refine_strategy = RefineStrategy::kAuto;
};

/// Index of a registered raster within the engine's catalog.
using RasterHandle = std::size_t;

/// One zonal query: a zone layer joined against a catalog raster under a
/// binning.
struct ZonalQuery {
  RasterHandle raster = 0;
  const PolygonSet* zones = nullptr;  ///< must outlive run()/run_batch()
  BinIndex bins = 5000;
};

struct QueryResult {
  HistogramSet per_polygon;
  StepTimes times;
  WorkCounters work;  ///< same accounting as ZonalPipeline
  /// Read only by perfbench/ (see TileCacheStats); always zero.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

class QueryEngine {
 public:
  QueryEngine(Device& device, QueryEngineConfig config = {});

  /// Register a raster with the catalog. The caller keeps ownership; the
  /// raster must outlive the engine.
  RasterHandle add_raster(const DemRaster& raster);

  [[nodiscard]] std::size_t raster_count() const { return rasters_.size(); }

  /// Execute one query.
  [[nodiscard]] QueryResult run(const ZonalQuery& query);

  /// Execute a batch in order.
  [[nodiscard]] std::vector<QueryResult> run_batch(
      const std::vector<ZonalQuery>& queries);

  [[nodiscard]] TileCacheStats cache_stats() const { return {}; }
  [[nodiscard]] const QueryEngineConfig& config() const { return config_; }

 private:
  Device* device_;
  QueryEngineConfig config_;
  std::vector<const DemRaster*> rasters_;
};

}  // namespace zh
