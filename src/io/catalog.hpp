// Dataset catalogs: a directory of compressed rasters plus one zone
// layer, processed out-of-core.
//
// The paper's CONUS dataset is exactly this shape -- six BQ-Tree-
// compressed raster files sharing one county layer -- and its pipelines
// stream raster-by-raster because no single device holds 40 GB. A
// catalog directory contains:
//   catalog.txt     manifest (format below)
//   zones.tsv       WKT TSV zone layer
//   <name>.bq       one compressed raster per entry
// Manifest format (line-oriented):
//   zhcatalog 1
//   zones <file>
//   raster <file>
//   raster <file> ...
#pragma once

#include <string>
#include <vector>

#include "bqtree/compressed_raster.hpp"
#include "common/timer.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "geom/polygon.hpp"

namespace zh {

struct Catalog {
  std::string directory;
  std::string zones_file;                 ///< relative to directory
  std::vector<std::string> raster_files;  ///< relative to directory

  [[nodiscard]] std::string zones_path() const;
  [[nodiscard]] std::string raster_path(std::size_t i) const;
};

/// Write a catalog: each raster serialized as <name>.bq, the zone layer
/// as zones.tsv, plus the manifest. The directory is created if needed.
void write_catalog(const std::string& directory,
                   const std::vector<std::pair<std::string,
                                               const BqCompressedRaster*>>&
                       rasters,
                   const PolygonSet& zones);

/// Parse a catalog directory's manifest. Throws IoError when malformed
/// or when referenced files are missing.
[[nodiscard]] Catalog open_catalog(const std::string& directory);

struct CatalogRunResult {
  HistogramSet per_polygon;
  StepTimes times;
  WorkCounters work;
  std::uint64_t bytes_read = 0;   ///< compressed bytes streamed from disk
  std::size_t rasters_processed = 0;
};

/// Stream every raster of the catalog through the filter-first pipeline,
/// merging per-zone histograms. Rasters are loaded one at a time: peak
/// memory is one raster, not the dataset.
[[nodiscard]] CatalogRunResult run_catalog(Device& device,
                                           const Catalog& catalog,
                                           const ZonalConfig& config);

}  // namespace zh
