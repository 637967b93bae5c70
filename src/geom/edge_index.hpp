// Per-polygon y-banded edge index for row-coherent (scanline) Step-4
// refinement.
//
// For each indexed polygon the builder buckets every real boundary edge
// by the raster rows whose cell-center y the edge's y-span crosses, using
// the ray-crossing rule of geom/pip.hpp (scanline_crossing): edge
// (j, j+1) crosses scanline y=py iff py in [min(y0,y1), max(y0,y1)).
// Horizontal edges (y0 == y1) never cross under that rule and the (0,0)
// ring-separator sentinel edges are skipped by the PiP loop, so both are
// excluded at build time. The scanline refiner can therefore gather
// row_edges(pid, r), compute each edge's x-intercept with the same
// function, and reproduce per-cell ray-crossing parity bit-for-bit.
//
// Storage is CSR per polygon: a contiguous row range [row0, row0+rows)
// with offsets into a flat bucket of edge tail indices. Building is a
// two-pass counting sort per polygon, polygons distributed over the
// ThreadPool (cf. "Building An Efficient Grid On GPU": cell counting +
// prefix sums + scatter). Only the polygons the caller lists are
// indexed: Step 4 lists the zones that own a boundary tile.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "geom/soa.hpp"
#include "grid/geotransform.hpp"

namespace zh {

/// Build-time accounting (surfaced as step4.* counters by the refiner;
/// geom stays independent of the obs layer).
struct EdgeIndexStats {
  std::uint64_t edges_indexed = 0;  ///< edges with at least one row bucket
  std::uint64_t edges_dropped = 0;  ///< horizontal + sentinel edges
  std::uint64_t bucket_entries = 0; ///< total (edge, row) memberships
};

class EdgeIndex {
 public:
  EdgeIndex() = default;

  /// Index the polygons `zones` of `soa` (each listed at most once)
  /// against the raster rows [0, rows) of `transform`; every other
  /// polygon's band stays empty. Row r's scanline is the cell-center y of
  /// row r (the y is column-independent). Polygons are processed in
  /// parallel on the global ThreadPool.
  static EdgeIndex build(const PolygonSoA& soa, const GeoTransform& transform,
                         std::int64_t raster_rows,
                         std::span<const PolygonId> zones);

  /// Tail vertex indices j (edges run (j, j+1) in the SoA arrays) of the
  /// edges of polygon `pid` crossing row `row`'s cell-center scanline.
  /// Empty for rows outside the polygon's banded range, and for every row
  /// of a polygon not indexed.
  [[nodiscard]] std::span<const std::uint32_t> row_edges(
      PolygonId pid, std::int64_t row) const {
    const Band& b = bands_[pid];
    if (row < b.row0 || row >= b.row0 + b.rows) return {};
    const std::size_t k = static_cast<std::size_t>(row - b.row0);
    return {b.edges.data() + b.offsets[k],
            static_cast<std::size_t>(b.offsets[k + 1] - b.offsets[k])};
  }

  [[nodiscard]] std::size_t polygon_count() const { return bands_.size(); }
  [[nodiscard]] const EdgeIndexStats& stats() const { return stats_; }

 private:
  /// Per-polygon CSR band: rows [row0, row0+rows); offsets has rows+1
  /// entries delimiting each row's slice of `edges`.
  struct Band {
    std::int64_t row0 = 0;
    std::int64_t rows = 0;
    std::vector<std::uint64_t> offsets;  ///< 64-bit: scan output (zh-lint
                                         ///< index-width pass 3)
    std::vector<std::uint32_t> edges;
  };

  std::vector<Band> bands_;
  EdgeIndexStats stats_;
};

}  // namespace zh
