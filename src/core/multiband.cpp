#include "core/multiband.hpp"

namespace zh {

SeriesResult run_series(Device& device, std::span<const DemRaster> bands,
                        const PolygonSet& polygons,
                        const ZonalConfig& config) {
  ZH_REQUIRE(config.tile_size >= 1, "tile size must be positive");
  ZH_REQUIRE(config.bins >= 1, "bin count must be positive");
  SeriesResult result;
  if (bands.empty()) return result;

  const DemRaster& first = bands.front();
  for (const DemRaster& b : bands) {
    ZH_REQUIRE(b.rows() == first.rows() && b.cols() == first.cols() &&
                   b.transform() == first.transform(),
               "series bands must be co-registered");
  }

  // Step 2 once for the whole stack: geometry does not change per band.
  const ZonalPlan plan = make_plan(
      polygons, TilingScheme(first.rows(), first.cols(), config.tile_size),
      first.transform());
  const PolygonSoA soa = PolygonSoA::build(polygons);
  ZonalResult acc;
  result.per_band.reserve(bands.size());
  for (const DemRaster& band : bands) {
    execute_plan(device, plan, band, soa, config, acc);
    result.per_band.push_back(std::move(acc.per_polygon));
  }
  result.times = acc.times;
  result.work = acc.work;
  return result;
}

}  // namespace zh
