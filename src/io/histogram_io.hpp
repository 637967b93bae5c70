// Histogram persistence: sparse CSV, the interchange shape GIS zonal
// tools emit (one row per non-empty (zone, bin) pair).
//
//   zone,bin,count
//   0,1204,37
//   0,1205,81
//   ...
// Zone names travel separately (vector_io's polygon TSV keeps them); the
// CSV uses stable zone ids so it joins against any zone attribute table.
#pragma once

#include <string>

#include "core/histogram.hpp"

namespace zh {

/// Write non-zero bins as zone,bin,count rows (header included), in zone
/// then bin order. Throws IoError when the file cannot be written.
void write_histogram_csv(const std::string& path, const HistogramSet& h);

/// Read a zone,bin,count CSV. `groups`/`bins` size the result; rows out
/// of range throw IoError.
[[nodiscard]] HistogramSet read_histogram_csv(const std::string& path,
                                              std::size_t groups,
                                              BinIndex bins);

}  // namespace zh
