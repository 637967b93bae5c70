// Step 2 properties (DESIGN.md invariant 3 + Fig. 4 bookkeeping): tile
// classification is sound against per-cell PIP, and the grouped dispatch
// arrays are a lossless reorganization of the labeled pair list.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "core/step2_pairing.hpp"
#include "data/conus.hpp"
#include "data/county_synth.hpp"
#include "geom/classify.hpp"
#include "geom/pip.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

struct Workload {
  GeoTransform transform{0.0, 10.0, 0.1, 0.1};  // 100x100 cells over 10x10
  TilingScheme tiling{100, 100, 10};
  PolygonSet polygons;
};

Workload make_workload(std::uint32_t seed, int count, bool holes) {
  Workload w;
  w.polygons = test::random_polygon_set(seed, GeoBox{0.5, 0.5, 9.5, 9.5},
                                        count, holes);
  return w;
}

TEST(Step2, PairListClassificationIsSound) {
  const Workload w = make_workload(3, 12, true);
  const TilePolygonPairs pairs =
      pair_tiles_with_polygons(w.polygons, w.tiling, w.transform);

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Polygon& poly = w.polygons[pairs.polygon_ids[i]];
    const CellWindow win = w.tiling.tile_window(pairs.tile_ids[i]);
    bool all_in = true;
    bool any_in = false;
    for (std::int64_t r = win.row0; r < win.row0 + win.rows; ++r) {
      for (std::int64_t c = win.col0; c < win.col0 + win.cols; ++c) {
        const bool in =
            point_in_polygon(poly, w.transform.cell_center(r, c));
        all_in &= in;
        any_in |= in;
      }
    }
    if (pairs.relations[i] == TileRelation::kInside) {
      EXPECT_TRUE(all_in) << "inside tile has an outside cell center";
    }
    // kIntersect is conservative: no assertion on any_in, but the label
    // must never be kOutside (those are dropped from the list).
    EXPECT_NE(pairs.relations[i], TileRelation::kOutside);
  }
}

TEST(Step2, EveryInsideCellCenterIsCoveredByAPair) {
  // Completeness: any cell center inside a polygon must lie in some tile
  // paired with that polygon (otherwise the pipeline would drop it).
  const Workload w = make_workload(11, 8, false);
  const TilePolygonPairs pairs =
      pair_tiles_with_polygons(w.polygons, w.tiling, w.transform);

  std::set<std::pair<PolygonId, TileId>> paired;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    paired.emplace(pairs.polygon_ids[i], pairs.tile_ids[i]);
  }
  for (PolygonId pid = 0; pid < w.polygons.size(); ++pid) {
    for (std::int64_t r = 0; r < 100; r += 3) {
      for (std::int64_t c = 0; c < 100; c += 3) {
        if (!point_in_polygon(w.polygons[pid],
                              w.transform.cell_center(r, c))) {
          continue;
        }
        const TileId t =
            w.tiling.tile_id(r / w.tiling.tile_size(),
                             c / w.tiling.tile_size());
        ASSERT_TRUE(paired.count({pid, t}))
            << "cell (" << r << "," << c << ") of polygon " << pid
            << " not covered by any pair";
      }
    }
  }
}

TEST(Step2, GroupsAreALosslessReorganization) {
  const Workload w = make_workload(29, 15, true);
  TilePolygonPairs pairs =
      pair_tiles_with_polygons(w.polygons, w.tiling, w.transform);

  // Reference multiset per (relation, polygon).
  std::map<std::pair<int, PolygonId>, std::multiset<TileId>> expect;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expect[{static_cast<int>(pairs.relations[i]), pairs.polygon_ids[i]}]
        .insert(pairs.tile_ids[i]);
  }

  const PairingResult res = build_pairing_groups(std::move(pairs));

  auto check = [&](const PolygonTileGroups& g, TileRelation rel) {
    ASSERT_EQ(g.pid_v.size(), g.num_v.size());
    ASSERT_EQ(g.pid_v.size(), g.pos_v.size());
    std::size_t covered = 0;
    for (std::size_t i = 0; i < g.pid_v.size(); ++i) {
      // pid_v strictly increasing: one group per polygon.
      if (i > 0) {
        ASSERT_LT(g.pid_v[i - 1], g.pid_v[i]);
      }
      ASSERT_EQ(g.pos_v[i], covered);
      std::multiset<TileId> tiles(
          g.tid_v.begin() + g.pos_v[i],
          g.tid_v.begin() + g.pos_v[i] + g.num_v[i]);
      ASSERT_EQ(tiles,
                (expect[{static_cast<int>(rel), g.pid_v[i]}]))
          << "relation " << static_cast<int>(rel) << " polygon "
          << g.pid_v[i];
      covered += g.num_v[i];
    }
    ASSERT_EQ(covered, g.tid_v.size());
  };
  check(res.inside, TileRelation::kInside);
  check(res.intersect, TileRelation::kIntersect);

  // Nothing lost: group pair counts sum to the labeled pair count.
  std::size_t expect_total = 0;
  for (const auto& [k, v] : expect) expect_total += v.size();
  EXPECT_EQ(res.inside.pair_count() + res.intersect.pair_count(),
            expect_total);
}

TEST(Step2, GroupingRejectsPairsOutOfZoneOrder) {
  // One pass groups by zone only because the pairs come in zone order;
  // a list whose zone ids decrease must fail loudly, not group wrongly.
  TilePolygonPairs pairs;
  pairs.tile_ids = {4, 5, 6};
  pairs.polygon_ids = {1, 1, 0};
  pairs.relations = {TileRelation::kInside, TileRelation::kIntersect,
                     TileRelation::kInside};
  EXPECT_THROW((void)build_pairing_groups(pairs), InvalidArgument);
}

TEST(Step2, PolygonStraddlingLastTileRowAndColumnIsPaired) {
  // Regression: a polygon overhanging the bottom-right raster corner has
  // an MBB extending past the extent in both axes. tiles_covering must
  // clamp it onto the last tile row/column (never drop the edge tiles,
  // never wrap), and every interior cell center must stay covered.
  Workload w;
  w.polygons.add(Polygon(
      {{{9.52, -0.5}, {10.5, -0.5}, {10.5, 0.48}, {9.52, 0.48}}}));
  const std::vector<TileId> covered =
      w.tiling.tiles_covering(w.polygons[0].mbr(), w.transform);
  ASSERT_EQ(covered.size(), 1u);
  EXPECT_EQ(covered[0], w.tiling.tile_id(9, 9));

  const PairingResult res =
      pair_and_group(w.polygons, w.tiling, w.transform);
  EXPECT_EQ(res.candidate_pairs, 1u);
  EXPECT_EQ(res.inside.pair_count(), 0u);  // the tile is only partly in
  ASSERT_EQ(res.intersect.group_count(), 1u);
  ASSERT_EQ(res.intersect.pair_count(), 1u);
  EXPECT_EQ(res.intersect.tid_v[0], w.tiling.tile_id(9, 9));

  // The in-raster part of the polygon really holds cell centers (so the
  // pairing above is load-bearing, not vacuous).
  int inside = 0;
  for (std::int64_t r = 95; r < 100; ++r) {
    for (std::int64_t c = 95; c < 100; ++c) {
      inside += point_in_polygon(w.polygons[0],
                                 w.transform.cell_center(r, c));
    }
  }
  EXPECT_EQ(inside, 25);  // centers x in (9.52, 10.5), y in (-0.5, 0.48)
}

TEST(Step2, PolygonOutsideRasterYieldsNoPairs) {
  Workload w;
  w.polygons.add(Polygon({{{100, 100}, {101, 100}, {101, 101}}}));
  const TilePolygonPairs pairs =
      pair_tiles_with_polygons(w.polygons, w.tiling, w.transform);
  EXPECT_EQ(pairs.size(), 0u);
  const PairingResult res = build_pairing_groups(
      pair_tiles_with_polygons(w.polygons, w.tiling, w.transform));
  EXPECT_EQ(res.inside.group_count(), 0u);
  EXPECT_EQ(res.intersect.group_count(), 0u);
}

TEST(Step2, LargePolygonProducesInsideTiles) {
  Workload w;
  // Covers almost the whole raster: interior tiles must classify inside.
  w.polygons.add(Polygon({{{0.05, 0.05}, {9.95, 0.05}, {9.95, 9.95},
                           {0.05, 9.95}}}));
  const PairingResult res =
      pair_and_group(w.polygons, w.tiling, w.transform);
  ASSERT_EQ(res.inside.group_count(), 1u);
  EXPECT_GT(res.inside.pair_count(), 50u);   // 8x8 interior tiles at least
  ASSERT_EQ(res.intersect.group_count(), 1u);
  EXPECT_GT(res.intersect.pair_count(), 0u);
  EXPECT_EQ(res.candidate_pairs, 100u);  // MBB covers all 10x10 tiles
}

TEST(Step2, EmptyPolygonSet) {
  Workload w;
  const PairingResult res =
      pair_and_group(w.polygons, w.tiling, w.transform);
  EXPECT_EQ(res.candidate_pairs, 0u);
  EXPECT_EQ(res.inside.group_count(), 0u);
}

/// The pairing classify_box defines, one pair at a time: each zone's MBB
/// candidates in row-major order, labelled by classify_box, outside
/// pairs dropped.
TilePolygonPairs classify_box_pairs(const PolygonSet& zones,
                                    const TilingScheme& tiling,
                                    const GeoTransform& transform) {
  TilePolygonPairs out;
  for (PolygonId z = 0; z < zones.size(); ++z) {
    const GeoBox mbr = zones[z].mbr();
    for (const TileId t : tiling.tiles_covering(mbr, transform)) {
      const TileRelation rel =
          classify_box(zones[z], mbr, tiling.tile_box(t, transform));
      if (rel == TileRelation::kOutside) continue;
      out.tile_ids.push_back(t);
      out.polygon_ids.push_back(z);
      out.relations.push_back(rel);
    }
  }
  return out;
}

struct PairTally {
  std::size_t inside = 0;
  std::size_t intersect = 0;
};

/// Step 2's pairs must equal classify_box_pairs element by element.
PairTally expect_pairs_match_classify_box(const PolygonSet& zones,
                                          const TilingScheme& tiling,
                                          const GeoTransform& transform) {
  const TilePolygonPairs want = classify_box_pairs(zones, tiling, transform);
  const TilePolygonPairs got =
      pair_tiles_with_polygons(zones, tiling, transform);
  EXPECT_EQ(got.size(), want.size());
  PairTally tally;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got.tile_ids[i] != want.tile_ids[i] ||
        got.polygon_ids[i] != want.polygon_ids[i] ||
        got.relations[i] != want.relations[i]) {
      ADD_FAILURE() << "pair " << i << ": got (tile " << got.tile_ids[i]
                    << ", zone " << got.polygon_ids[i] << ", relation "
                    << static_cast<int>(got.relations[i])
                    << "), classify_box gives (tile " << want.tile_ids[i]
                    << ", zone " << want.polygon_ids[i] << ", relation "
                    << static_cast<int>(want.relations[i]) << ")";
      break;
    }
    ++(want.relations[i] == TileRelation::kInside ? tally.inside
                                                  : tally.intersect);
  }
  return tally;
}

Ring box_ring(double x0, double y0, double x1, double y1) {
  return {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}};
}

/// A zone whose parts are the rings of `a` and `b` (disjoint parts, or a
/// part inside a hole).
Polygon multi_part(const Polygon& a, const Polygon& b) {
  Polygon p = a;
  for (const Ring& r : b.rings()) p.add_ring(r);
  return p;
}

void sweep_matches_on_table_one_tilings() {
  // The six Table-1 rasters at S=30 with their 12-cell tiles, against
  // the county layer and a coarse 48-zone layer. Step 2 reads only
  // transforms and tilings, so no raster is generated.
  const std::vector<PolygonSet> layers = {
      conus::generate_county_layer(3109), conus::generate_county_layer(48, 9)};
  constexpr int kScale = 30;
  const std::int64_t tile = conus::tile_size_cells(kScale);
  PairTally total;
  for (const conus::RasterSpec& spec : conus::table1()) {
    const TilingScheme tiling(spec.rows_at(kScale), spec.cols_at(kScale),
                              tile);
    for (std::size_t l = 0; l < layers.size(); ++l) {
      SCOPED_TRACE(spec.name + " layer " + std::to_string(l));
      const PairTally t = expect_pairs_match_classify_box(
          layers[l], tiling, spec.transform_at(kScale));
      total.inside += t.inside;
      total.intersect += t.intersect;
    }
  }
  EXPECT_GT(total.inside, 10000u);
  EXPECT_GT(total.intersect, 10000u);
}

void sweep_matches_on_seeded_layers() {
  // 95 x 103 cells: the last tile row and column are partial at every
  // tile size but 1. The layers reach past the raster on every side;
  // every third zone has a hole, and two extra zones have several parts
  // (one a part inside another part's hole).
  const GeoTransform transform(0.0, 9.5, 0.1, 0.1);
  for (const std::int64_t tile : {1, 3, 10, 17}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("tile " + std::to_string(tile) + " seed " +
                   std::to_string(seed));
      CountyParams cp;
      cp.seed = seed;
      cp.grid_x = 4;
      cp.grid_y = 3;
      cp.hole_every = 3;
      PolygonSet zones =
          generate_counties(GeoBox{-0.7, -0.4, 10.9, 10.1}, cp);
      std::mt19937 rng(static_cast<std::uint32_t>(seed));
      const Polygon ring_part = test::random_star_polygon(
          rng, 5.0, 4.5, 2.5, 40, /*with_hole=*/true);
      zones.add(multi_part(ring_part, test::random_star_polygon(
                                          rng, 5.0, 4.5, 0.4, 9)));
      zones.add(multi_part(zones[0], zones[zones.size() - 2]));
      const PairTally t = expect_pairs_match_classify_box(
          zones, TilingScheme(95, 103, tile), transform);
      EXPECT_GT(t.inside, 0u);
      EXPECT_GT(t.intersect, 0u);
    }
  }
}

void sweep_matches_on_tile_boundaries_and_centre_lines() {
  // Cells of 1/4 unit and tiles of 4 cells: tile boundaries fall on the
  // integers and tile centre lines on the half-integers, all exact, so
  // edges and vertices hit them exactly. Tiles of 2 cells put a tile
  // boundary on every half-integer as well.
  const GeoTransform transform(0.0, 16.0, 0.25, 0.25);
  PolygonSet zones;
  zones.add(Polygon({box_ring(2, 3, 7, 8)}));          // on boundaries
  zones.add(Polygon({box_ring(2.5, 3.5, 6.5, 11.5)}));  // on centre lines
  zones.add(Polygon({box_ring(9, 1.5, 14.5, 6)}));      // one of each
  zones.add(Polygon({{{8, 8.5}, {12.5, 13}, {8, 15.5}, {3.5, 13}}}));
  zones.add(Polygon({{{1, 1}, {5, 1}, {5, 2}, {1, 2}}}));  // one tile high
  Polygon holed({box_ring(0, 0, 16, 16)});                 // the raster
  holed.add_ring(box_ring(4, 4, 12, 12));
  zones.add(holed);
  zones.add(Polygon({box_ring(1.5, 12, 6, 12.5)}));  // thinner than a tile
  for (const std::int64_t tile : {1, 2, 4, 5}) {
    SCOPED_TRACE("tile " + std::to_string(tile));
    const PairTally t = expect_pairs_match_classify_box(
        zones, TilingScheme(64, 64, tile), transform);
    EXPECT_GT(t.inside, 0u);
    EXPECT_GT(t.intersect, 0u);
  }
}

void sweep_matches_on_rounded_tile_corners() {
  // Under a Table-1 transform, about a third of the cell corners map back
  // into the previous cell (origin + c * cell, less origin, over cell,
  // floors to c - 1). A spike whose tip is such a corner touches the
  // next tile, and nothing else of its zone does: the sweep must still
  // test the tip's edges against that tile. Tips point east at tile
  // column boundaries and south at tile row boundaries.
  const conus::RasterSpec& spec = conus::table1()[0];
  const GeoTransform t = spec.transform_at(30);
  const TilingScheme tiling(spec.rows_at(30), spec.cols_at(30), 12);
  const double w = 12 * t.cell_w();  // one tile
  PolygonSet zones;
  for (std::int64_t tx = 4; tx + 4 < tiling.tiles_x() && zones.size() < 8;
       ++tx) {
    const double x = tiling.tile_box(tiling.tile_id(0, tx), t).min_x;
    if (t.x_to_col(x) / tiling.tile_size() != tx - 1) continue;
    const double y = tiling.tile_box(tiling.tile_id(5, tx), t).min_y + w / 2;
    // Tip (x, y); the zone reaches past x two tile rows further north.
    zones.add(Polygon({{{x - 3 * w, y - w / 5}, {x, y}, {x - 3 * w, y + w / 5},
                        {x - 3 * w, y + 2.5 * w}, {x + 3.5 * w, y + 2.5 * w},
                        {x + 3.5 * w, y + 4.5 * w}, {x - 5 * w, y + 4.5 * w},
                        {x - 5 * w, y - w / 5}}}));
  }
  const std::size_t east = zones.size();
  for (std::int64_t ty = 4; ty + 4 < tiling.tiles_y() && zones.size() < 16;
       ++ty) {
    const double y = tiling.tile_box(tiling.tile_id(ty, 0), t).max_y;
    if (t.y_to_row(y) / tiling.tile_size() != ty - 1) continue;
    const double x = tiling.tile_box(tiling.tile_id(ty, 5), t).min_x + w / 2;
    // Tip (x, y); the zone reaches past y two tile columns further east.
    zones.add(Polygon({{{x - w / 5, y + 3 * w}, {x, y}, {x + w / 5, y + 3 * w},
                        {x + 2.5 * w, y + 3 * w}, {x + 2.5 * w, y - 3.5 * w},
                        {x + 4.5 * w, y - 3.5 * w}, {x + 4.5 * w, y + 5 * w},
                        {x - w / 5, y + 5 * w}}}));
  }
  ASSERT_EQ(east, 8u);
  ASSERT_EQ(zones.size(), 16u);
  const PairTally tally = expect_pairs_match_classify_box(zones, tiling, t);
  EXPECT_GT(tally.inside, 0u);
}

void sweep_matches_past_the_raster_edges() {
  // 10 x 10 units, 100 x 100 cells, tiles of 10 cells.
  const GeoTransform transform(0.0, 10.0, 0.1, 0.1);
  const TilingScheme tiling(100, 100, 10);
  PolygonSet zones;
  zones.add(Polygon({box_ring(-3, -2, 13, 12)}));     // covers the raster
  zones.add(Polygon({box_ring(-3, 4.05, 4.05, 12)}));  // past two edges
  zones.add(Polygon({box_ring(11, 2, 14, 8)}));       // east of it
  zones.add(Polygon({box_ring(-4, 2, 0, 8)}));        // touches the west
  zones.add(Polygon({box_ring(2, 10, 8, 11)}));       // touches the north
  zones.add(Polygon({box_ring(2, -5, 8, -1)}));       // south of it
  std::mt19937 rng(17);
  zones.add(test::random_star_polygon(rng, 5.0, 5.0, 9.0, 30, true));
  // Far but finite vertices: edges with ends beyond any tile.
  for (const double far : {1e3, 1e17, 1e300}) {
    zones.add(Polygon({{{1, 1}, {9, 1}, {far, 5}, {9, 9}, {1, 9}}}));
    zones.add(Polygon({{{-far, 2}, {8, 2.5}, {8, 7.5}}}));
    zones.add(Polygon({{{2, 2}, {8, 2}, {5, far}}}));
    zones.add(Polygon({{{2, 8}, {8, 8}, {5, -far}}}));
  }
  const PairTally t = expect_pairs_match_classify_box(zones, tiling,
                                                      transform);
  EXPECT_GT(t.inside, 0u);
  EXPECT_GT(t.intersect, 0u);
  // The east, west-touching, north-touching and south zones (ids 2-5)
  // pair only with tiles their boundary touches, if any.
  const TilePolygonPairs pairs =
      pair_tiles_with_polygons(zones, tiling, transform);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs.polygon_ids[i] >= 2 && pairs.polygon_ids[i] <= 5) {
      EXPECT_EQ(pairs.relations[i], TileRelation::kIntersect);
    }
  }
}

// Step 2 labels every pair exactly as classify_box does, and lists them
// in the same order, on the pairings the benchmarks run and on geometry
// chosen to land on the sweep's rounding and tie cases.
TEST(Step2, SweepMatchesClassifyBox) {
  {
    SCOPED_TRACE("Table-1 tilings at S=30");
    sweep_matches_on_table_one_tilings();
  }
  {
    SCOPED_TRACE("seeded layers with holes and multi-part zones");
    sweep_matches_on_seeded_layers();
  }
  {
    SCOPED_TRACE("edges on tile boundaries and centre lines");
    sweep_matches_on_tile_boundaries_and_centre_lines();
  }
  {
    SCOPED_TRACE("spike tips on tile corners that round into the tile before");
    sweep_matches_on_rounded_tile_corners();
  }
  {
    SCOPED_TRACE("zones past the raster edges");
    sweep_matches_past_the_raster_edges();
  }
}

// Regression: num_v/pos_v were std::uint32_t while pair_count() is a
// size_t, so on large rasters x dense polygon sets the group offsets
// silently wrapped past 2^32 pairs. The dispatch arrays' element type
// must stay 64-bit (allocating 4G+ real pairs is infeasible in a unit
// test).
TEST(Step2Grouping, DispatchOffsetsSurviveFourBillionPairs) {
  static_assert(
      std::is_same_v<decltype(PolygonTileGroups::num_v)::value_type,
                     std::uint64_t>,
      "num_v must be 64-bit: a zone's tile count is a size_t");
  static_assert(
      std::is_same_v<decltype(PolygonTileGroups::pos_v)::value_type,
                     std::uint64_t>,
      "pos_v must be 64-bit: offsets index a size_t-sized pair array");
}

}  // namespace
}  // namespace zh
