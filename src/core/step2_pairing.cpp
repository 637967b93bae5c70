#include "core/step2_pairing.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "device/thread_pool.hpp"
#include "geom/classify.hpp"
#include "geom/pip.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

/// A tile column's x-extent or a tile row's y-extent, as tile_box gives
/// it, with its centre and whether it overlaps the zone's MBB.
struct Extent {
  double lo = 0.0;
  double hi = 0.0;
  double mid = 0.0;
  bool in_mbr = false;
};

/// Per-thread scratch of the tile sweep, reused across the zones of a
/// chunk.
struct SweepScratch {
  std::vector<Extent> cols;
  std::vector<Extent> rows;
  std::vector<std::uint8_t> marked;  ///< one byte per MBB tile: edge hit
  /// (candidate row, x) of every edge crossing a row's centre line.
  std::vector<std::pair<std::size_t, double>> crossings;
};

/// Classify every MBB candidate tile of `poly` exactly as classify_box
/// does, appending the kept (inside or intersect) tiles in row-major
/// order. Cost: the candidates, plus per edge the tiles around its box
/// and the rows it crosses (DESIGN.md, "Step 2: the tile sweep").
void sweep_zone(const Polygon& poly, const TilingScheme& tiling,
                const GeoTransform& transform, SweepScratch& s,
                std::vector<TileId>& tiles, std::vector<TileRelation>& rels) {
  const GeoBox mbr = poly.mbr();
  const TileRange cand = tiling.tile_range_covering(mbr, transform);
  if (cand.empty()) return;

  // Tile boxes are separable: x depends on the column only, y on the row
  // only. Read both off tile_box so every test sees classify_box's box,
  // and take classify_box's first test, the MBB overlap, per axis.
  s.cols.resize(static_cast<std::size_t>(cand.cols()));
  for (std::size_t c = 0; c < s.cols.size(); ++c) {
    const GeoBox box = tiling.tile_box(
        tiling.tile_id(cand.ty0, cand.tx0 + static_cast<std::int64_t>(c)),
        transform);
    s.cols[c] = {box.min_x, box.max_x, (box.min_x + box.max_x) / 2.0,
                 !(box.min_x > mbr.max_x || box.max_x < mbr.min_x)};
  }
  s.rows.resize(static_cast<std::size_t>(cand.rows()));
  for (std::size_t r = 0; r < s.rows.size(); ++r) {
    const GeoBox box = tiling.tile_box(
        tiling.tile_id(cand.ty0 + static_cast<std::int64_t>(r), cand.tx0),
        transform);
    s.rows[r] = {box.min_y, box.max_y, (box.min_y + box.max_y) / 2.0,
                 !(box.min_y > mbr.max_y || box.max_y < mbr.min_y)};
  }
  const std::size_t ncols = s.cols.size();
  s.marked.assign(s.rows.size() * ncols, 0);
  s.crossings.clear();

  const std::int64_t ts = tiling.tile_size();
  for (const Ring& ring : poly.rings()) {
    const std::size_t n = ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      const GeoPoint& a = ring[i];
      const GeoPoint& b = ring[(i + 1) % n];

      // Intersect: mark the tiles the edge meets. A tile the segment
      // test accepts lies in the edge's box, give or take the rounding
      // of a tile boundary, so one tile of margin around that box holds
      // every hit. Division truncates a cell west or north of the raster
      // towards tile 0: that raises an upper bound, and a lower bound
      // the clamp to the candidates overrides anyway.
      const std::int64_t tx0 = std::max(
          cand.tx0, transform.x_to_col(std::min(a.x, b.x)) / ts - 1);
      const std::int64_t tx1 = std::min(
          cand.tx1, transform.x_to_col(std::max(a.x, b.x)) / ts + 1);
      const std::int64_t ty0 = std::max(
          cand.ty0, transform.y_to_row(std::max(a.y, b.y)) / ts - 1);
      const std::int64_t ty1 = std::min(
          cand.ty1, transform.y_to_row(std::min(a.y, b.y)) / ts + 1);
      for (std::int64_t ty = ty0; ty <= ty1; ++ty) {
        const Extent& row = s.rows[static_cast<std::size_t>(ty - cand.ty0)];
        if (!row.in_mbr) continue;
        for (std::int64_t tx = tx0; tx <= tx1; ++tx) {
          const auto c = static_cast<std::size_t>(tx - cand.tx0);
          std::uint8_t& mark =
              s.marked[static_cast<std::size_t>(ty - cand.ty0) * ncols + c];
          if (mark != 0 || !s.cols[c].in_mbr) continue;
          const GeoBox box{s.cols[c].lo, row.lo, s.cols[c].hi, row.hi};
          if (segment_intersects_box(a, b, box)) mark = 1;
        }
      }

      // The candidate rows whose centre line the edge crosses. Centres
      // fall as rows go south, so past the rows at or above the edge's
      // top they form one run. Edges off the raster count too: each
      // flips the parity of every tile centre to its west.
      const double top = std::max(a.y, b.y);
      auto r = static_cast<std::size_t>(
          std::partition_point(s.rows.begin(), s.rows.end(),
                               [&](const Extent& e) { return e.mid >= top; }) -
          s.rows.begin());
      for (; r < s.rows.size(); ++r) {
        const std::optional<double> x =
            scanline_crossing(a.x, a.y, b.x, b.y, s.rows[r].mid);
        if (!x) break;
        s.crossings.emplace_back(r, *x);
      }
    }
  }
  std::sort(s.crossings.begin(), s.crossings.end());

  // Inside or outside: an unmarked tile holds no boundary, so its centre
  // decides, by point_in_polygon's parity: inside iff an odd number of
  // the row's crossings lie strictly east of the centre.
  std::size_t k = 0;  // first crossing of the current row
  for (std::size_t r = 0; r < s.rows.size(); ++r) {
    std::size_t end = k;
    while (end < s.crossings.size() && s.crossings[end].first == r) ++end;
    for (std::size_t c = 0; c < ncols; ++c) {
      TileRelation rel = TileRelation::kOutside;
      if (s.rows[r].in_mbr && s.cols[c].in_mbr) {
        if (s.marked[r * ncols + c] != 0) {
          rel = TileRelation::kIntersect;
        } else {
          // Crossings at or west of this centre; centres grow with c.
          while (k < end && s.crossings[k].second <= s.cols[c].mid) ++k;
          if ((end - k) % 2 == 1) rel = TileRelation::kInside;
        }
      }
      if (rel == TileRelation::kOutside) continue;
      tiles.push_back(tiling.tile_id(cand.ty0 + static_cast<std::int64_t>(r),
                                     cand.tx0 + static_cast<std::int64_t>(c)));
      rels.push_back(rel);
    }
    k = end;
  }
}

}  // namespace

TilePolygonPairs pair_tiles_with_polygons(const PolygonSet& polygons,
                                          const TilingScheme& tiling,
                                          const GeoTransform& transform) {
  const std::size_t n = polygons.size();
  ZH_TRACE_SPAN("step2.pair_tiles", "pipeline");

  // Per-polygon local buffers, concatenated in polygon order afterwards so
  // the output is deterministic regardless of scheduling.
  struct Local {
    std::vector<TileId> tiles;
    std::vector<TileRelation> rels;
  };
  std::vector<Local> locals(n);

  ThreadPool::global().parallel_for(n, [&](std::size_t b, std::size_t e) {
    SweepScratch scratch;
    for (std::size_t i = b; i < e; ++i) {
      sweep_zone(polygons[static_cast<PolygonId>(i)], tiling, transform,
                 scratch, locals[i].tiles, locals[i].rels);
    }
  });

  TilePolygonPairs out;
  std::size_t total = 0;
  for (const Local& loc : locals) total += loc.tiles.size();
  out.tile_ids.reserve(total);
  out.polygon_ids.reserve(total);
  out.relations.reserve(total);
  for (std::size_t i = 0; i < n; ++i) {
    const Local& loc = locals[i];
    for (std::size_t k = 0; k < loc.tiles.size(); ++k) {
      out.tile_ids.push_back(loc.tiles[k]);
      out.polygon_ids.push_back(static_cast<PolygonId>(i));
      out.relations.push_back(loc.rels[k]);
    }
  }
  return out;
}

PairingResult build_pairing_groups(const TilePolygonPairs& pairs) {
  ZH_TRACE_SPAN("step2.group", "pipeline");
  PairingResult result;
  result.candidate_pairs = pairs.size();
  // The pairs come in zone order, so each class's groups come out in
  // zone order and each group's tiles in the order the pairs hold them:
  // the arrays a stable sort by (relation, zone) would give.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PolygonId pid = pairs.polygon_ids[i];
    ZH_REQUIRE(i == 0 || pairs.polygon_ids[i - 1] <= pid, "pair ", i,
               " of zone ", pid, " follows zone ", pairs.polygon_ids[i - 1],
               ": pairs must come in zone order");
    // Sec. III.B: the spatial filter must emit a clean partition -- only
    // inside/intersect survive (outside pairs were dropped upstream).
    ZH_ASSERT(pairs.relations[i] == TileRelation::kInside ||
                  pairs.relations[i] == TileRelation::kIntersect,
              "pair ", i, " carries relation ",
              static_cast<int>(pairs.relations[i]),
              " which is not inside/intersect");
    PolygonTileGroups& g = pairs.relations[i] == TileRelation::kInside
                               ? result.inside
                               : result.intersect;
    if (g.pid_v.empty() || g.pid_v.back() != pid) {
      g.pid_v.push_back(pid);
      g.num_v.push_back(0);
      g.pos_v.push_back(g.tid_v.size());
    }
    ++g.num_v.back();
    g.tid_v.push_back(pairs.tile_ids[i]);
  }
  return result;
}

PairingResult pair_and_group(const PolygonSet& polygons,
                             const TilingScheme& tiling,
                             const GeoTransform& transform) {
  ZH_TRACE_SPAN("step2.pairing", "pipeline");
  return build_pairing_groups(
      pair_tiles_with_polygons(polygons, tiling, transform));
}

}  // namespace zh
