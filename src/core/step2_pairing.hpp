// Step 2: pairing raster tiles with polygons (Sec. III.B, Figs. 3-4).
//
// Spatial filtering: each polygon's MBB is rasterized onto the tile grid
// (the implicit grid-file index), producing candidate (tile, polygon)
// pairs; exact polygon-vs-tile-box classification then labels each pair
// outside (dropped), inside, or intersect -- the relation classify_box
// (geom/classify) defines, computed per zone by a sweep: each edge marks
// the tiles it meets, and each tile row's centre-line crossings settle
// the rest (DESIGN.md, "Step 2: the tile sweep"). The sweep emits the
// pairs in zone order, so one pass over them builds the Fig. 4
// (pid_v, num_v, pos_v, tid_v) block-dispatch arrays consumed by Steps 3
// and 4 that the paper builds with stable_sort_by_key, stable_partition,
// reduce_by_key and an exclusive scan.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "geom/polygon.hpp"
#include "grid/tiling.hpp"

namespace zh {

/// Raw labeled candidate pairs (outside pairs already dropped).
struct TilePolygonPairs {
  std::vector<TileId> tile_ids;
  std::vector<PolygonId> polygon_ids;
  std::vector<TileRelation> relations;

  [[nodiscard]] std::size_t size() const { return tile_ids.size(); }
};

/// The dispatch arrays of Fig. 4 for one relation class: entry i says
/// polygon pid_v[i] owns the num_v[i] tiles at tid_v[pos_v[i] ...].
/// num_v/pos_v are 64-bit: pair_count() is a size_t, and on large
/// rasters x dense polygon sets the offsets in pos_v can exceed 2^32 --
/// 32-bit offsets would wrap silently.
struct PolygonTileGroups {
  std::vector<PolygonId> pid_v;
  std::vector<std::uint64_t> num_v;
  std::vector<std::uint64_t> pos_v;
  std::vector<TileId> tid_v;

  [[nodiscard]] std::size_t group_count() const { return pid_v.size(); }
  [[nodiscard]] std::size_t pair_count() const { return tid_v.size(); }
};

/// Step-2 output: inside groups feed Step 3, intersect groups feed
/// Step 4.
struct PairingResult {
  PolygonTileGroups inside;
  PolygonTileGroups intersect;
  /// Inside plus intersect pairs: the pairs classification kept, which
  /// PerfModel's Step-2 rate is charged on.
  std::size_t candidate_pairs = 0;
};

/// MBB rasterization + exact classification over all polygons (polygons
/// processed in parallel), on the CPU as in the paper ("we can realize
/// this step on CPUs using well-established computational geometry
/// libraries"). Every label equals classify_box's for the pair. A zone
/// costs its MBB tiles, plus per edge the MBB tiles in the edge's box,
/// plus its centre-line crossings; its pairs come in row-major tile
/// order.
[[nodiscard]] TilePolygonPairs pair_tiles_with_polygons(
    const PolygonSet& polygons, const TilingScheme& tiling,
    const GeoTransform& transform);

/// The Fig. 4 dispatch arrays in one pass: each pair appends its tile to
/// its class's tid_v, and a zone's first pair in a class opens that
/// class's group. Groups come in zone order, each group's tiles in pair
/// order. Throws InvalidArgument unless the zone ids never decrease, as
/// pair_tiles_with_polygons emits them.
[[nodiscard]] PairingResult build_pairing_groups(
    const TilePolygonPairs& pairs);

/// Convenience: both phases.
[[nodiscard]] PairingResult pair_and_group(const PolygonSet& polygons,
                                           const TilingScheme& tiling,
                                           const GeoTransform& transform);

}  // namespace zh
