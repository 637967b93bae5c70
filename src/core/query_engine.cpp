#include "core/query_engine.hpp"

#include <utility>

#include "common/error.hpp"
#include "geom/soa.hpp"
#include "obs/obs.hpp"

namespace zh {

QueryEngine::QueryEngine(Device& device, QueryEngineConfig config)
    : device_(&device), config_(config) {
  ZH_REQUIRE(config.tile_size >= 1, "tile size must be positive");
}

RasterHandle QueryEngine::add_raster(const DemRaster& raster) {
  rasters_.push_back(&raster);
  return rasters_.size() - 1;
}

QueryResult QueryEngine::run(const ZonalQuery& query) {
  ZH_REQUIRE(query.raster < rasters_.size(), "unknown raster handle ",
             query.raster, " (catalog has ", rasters_.size(), ")");
  ZH_REQUIRE(query.zones != nullptr, "query needs a zone layer");
  ZH_REQUIRE(query.bins >= 1, "bin count must be positive");
  ZH_TRACE_SPAN("query.run", "query");

  const DemRaster& raster = *rasters_[query.raster];
  const PolygonSet& zones = *query.zones;
  const ZonalConfig config{.tile_size = config_.tile_size,
                           .bins = query.bins,
                           .refine_granularity = config_.refine_granularity,
                           .refine_strategy = config_.refine_strategy};
  ZonalResult r;
  execute_plan(*device_,
               make_plan(zones,
                         TilingScheme(raster.rows(), raster.cols(),
                                      config.tile_size),
                         raster.transform()),
               raster, PolygonSoA::build(zones), config, r);

  QueryResult result;
  result.per_polygon = std::move(r.per_polygon);
  result.times = r.times;
  result.work = r.work;
  return result;
}

std::vector<QueryResult> QueryEngine::run_batch(
    const std::vector<ZonalQuery>& queries) {
  ZH_TRACE_SPAN("query.run_batch", "query");
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (const ZonalQuery& q : queries) results.push_back(run(q));
  return results;
}

}  // namespace zh
