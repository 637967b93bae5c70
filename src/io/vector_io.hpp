// Polygon-layer and histogram-output text I/O.
//
// Polygon layers are stored one feature per line as
//   <name> <TAB> <WKT polygon>
// (tab-separated because WKT itself is full of commas). Histograms are
// written as sparse CSV: one row per nonzero bin, mirroring the per-zone
// tables GIS zonal tools emit.
#pragma once

#include <string>

#include "geom/polygon.hpp"

namespace zh {

class HistogramSet;  // core/histogram.hpp

/// Write `set` as name<TAB>WKT lines.
void write_polygon_tsv(const std::string& path, const PolygonSet& set);

/// Read a name<TAB>WKT polygon layer.
[[nodiscard]] PolygonSet read_polygon_tsv(const std::string& path);

}  // namespace zh
