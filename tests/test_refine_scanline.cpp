// Step-4 refinement-strategy properties (DESIGN.md, "Refinement
// strategies"): the scanline path must be bit-identical to the
// brute-force oracle -- including adversarial
// geometry (horizontal edges exactly on a cell-center scanline, vertices
// coincident with cell centers, holes, multi-part polygons) -- its
// counters must obey the strategy contract, the y-banded edge index must
// match the ray-crossing y-predicate edge-for-edge, kAuto must resolve
// by edge density, and a zone whose boundary tiles split across blocks
// must count as if one block refined them.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/baseline.hpp"
#include "core/pipeline.hpp"
#include "core/step2_pairing.hpp"
#include "core/step4_refine.hpp"
#include "core/zone_rows.hpp"
#include "device/thread_pool.hpp"
#include "geom/edge_index.hpp"
#include "geom/pip.hpp"
#include "geom/soa.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

struct RefineRun {
  HistogramSet hist;
  RefineCounters rc;
};

/// Pair + refine only (Steps 2 and 4): isolates the strategy under test
/// from Step 1/3 so histogram differences can only come from refinement.
RefineRun run_refine(const DemRaster& raster, const TilingScheme& tiling,
                     const PolygonSet& polys, BinIndex bins,
                     RefineStrategy s) {
  Device dev;
  const PolygonSoA soa = PolygonSoA::build(polys);
  const PairingResult pairs =
      pair_and_group(polys, tiling, raster.transform());
  RefineRun out{HistogramSet(polys.size(), bins), {}};
  out.rc = refine_boundary_tiles(dev, pairs.intersect, soa, raster,
                                 tiling, out.hist,
                                 RefineGranularity::kPolygonGroup, s);
  return out;
}

/// True if `p` lies exactly on a boundary segment of `poly` (where
/// crossing parity and winding number may legitimately disagree).
bool on_boundary(const Polygon& poly, const GeoPoint& p) {
  for (const Ring& ring : poly.rings()) {
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const GeoPoint a = ring[i];
      const GeoPoint b = ring[(i + 1) % ring.size()];
      const double cross =
          (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
      if (cross != 0.0) continue;
      if (p.x < std::min(a.x, b.x) || p.x > std::max(a.x, b.x)) continue;
      if (p.y < std::min(a.y, b.y) || p.y > std::max(a.y, b.y)) continue;
      return true;
    }
  }
  return false;
}

/// Adversarial fixture on a unit-cell grid with centers at half-integer
/// coordinates: an L-shaped outer ring whose horizontal edges sit exactly
/// on cell-center scanlines and whose vertices coincide with cell
/// centers, a hole, and a disjoint second part.
PolygonSet adversarial_polygons() {
  Polygon p({{{0.5, 0.5},
              {5.5, 0.5},
              {5.5, 4.5},
              {3.5, 4.5},
              {3.5, 6.5},
              {0.5, 6.5}}});
  p.add_ring({{1.5, 1.5}, {1.5, 3.5}, {2.5, 3.5}, {2.5, 1.5}});
  p.add_ring({{6.5, 5.5}, {7.5, 5.5}, {7.5, 7.5}, {6.5, 7.5}});
  PolygonSet set;
  set.add(std::move(p));
  return set;
}

TEST(RefineScanline, BitIdenticalToBruteOnRandomGeometry) {
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u}) {
    const DemRaster raster = test::random_raster(
        96, 80, seed, 49, GeoTransform(0.0, 9.6, 0.1, 0.1));
    const TilingScheme tiling(96, 80, 16);
    const PolygonSet polys = test::random_polygon_set(
        seed * 13, GeoBox{0.5, 0.5, 7.5, 9.1}, 8, seed % 2 == 1);

    const RefineRun brute =
        run_refine(raster, tiling, polys, 50, RefineStrategy::kBrute);
    const RefineRun scan =
        run_refine(raster, tiling, polys, 50, RefineStrategy::kScanline);
    EXPECT_EQ(brute.hist, scan.hist) << "seed " << seed;

    // Strategy-invariant counters.
    EXPECT_EQ(brute.rc.cell_tests, scan.rc.cell_tests);
    EXPECT_EQ(brute.rc.cells_counted, scan.rc.cells_counted);
    ASSERT_GT(scan.rc.cell_tests, 0u);

    // Strategy contract: brute never scans rows, scanline classifies
    // every cell through runs and tests at most the banded edges (a
    // row's band is a subset of the polygon's tested edges, charged
    // once per row instead of once per cell).
    EXPECT_EQ(brute.rc.rows_scanned, 0u);
    EXPECT_EQ(brute.rc.run_cells, 0u);
    EXPECT_EQ(brute.rc.strategy, RefineStrategy::kBrute);
    EXPECT_GT(scan.rc.rows_scanned, 0u);
    EXPECT_EQ(scan.rc.run_cells, scan.rc.cell_tests);
    EXPECT_EQ(scan.rc.strategy, RefineStrategy::kScanline);
    EXPECT_LE(scan.rc.edge_tests, brute.rc.edge_tests);
  }
}

TEST(RefineScanline, AdversarialGeometryMatchesBruteAndGroundTruth) {
  // One 8x8 tile so the whole raster refines through Step 4; result must
  // equal per-cell PiP over every cell, for both strategies, bit for bit.
  Device dev;
  DemRaster raster(8, 8, GeoTransform(0.0, 8.0, 1.0, 1.0));
  for (CellValue& v : raster.cells()) v = 2;
  const TilingScheme tiling(8, 8, 8);
  const PolygonSet set = adversarial_polygons();
  const PolygonSoA soa = PolygonSoA::build(set);

  const RefineRun brute =
      run_refine(raster, tiling, set, 4, RefineStrategy::kBrute);
  const RefineRun scan =
      run_refine(raster, tiling, set, 4, RefineStrategy::kScanline);
  EXPECT_EQ(brute.hist, scan.hist);

  BinCount expect = 0;
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 8; ++c) {
      const GeoPoint pt = raster.transform().cell_center(r, c);
      const bool in = point_in_polygon_soa(soa, 0, pt.x, pt.y);
      EXPECT_EQ(in, point_in_polygon(set[0], pt))
          << "SoA/object disagreement at (" << pt.x << "," << pt.y << ")";
      expect += in;
    }
  }
  EXPECT_EQ(brute.hist.of(0)[2], expect);
  EXPECT_EQ(scan.hist.of(0)[2], expect);
}

TEST(RefineScanline, CrossingParityMatchesWindingOffBoundary) {
  // Winding-number cross-validation of the shared parity rule on the
  // adversarial fixture plus random stars: wherever the center is not
  // exactly on an edge, parity and winding must agree.
  const PolygonSet adversarial = adversarial_polygons();
  std::mt19937 rng(4242);
  std::vector<Polygon> polys;
  polys.push_back(adversarial[0]);
  for (int k = 0; k < 8; ++k) {
    polys.push_back(test::random_star_polygon(rng, 4.0, 4.0, 3.5, 7 + k,
                                              /*with_hole=*/k % 2 == 0));
  }
  const GeoTransform t(0.0, 8.0, 0.5, 0.5);
  int checked = 0;
  for (const Polygon& poly : polys) {
    for (std::int64_t r = 0; r < 16; ++r) {
      for (std::int64_t c = 0; c < 16; ++c) {
        const GeoPoint pt = t.cell_center(r, c);
        if (on_boundary(poly, pt)) continue;
        ++checked;
        EXPECT_EQ(point_in_polygon(poly, pt), winding_number(poly, pt) != 0)
            << "center (" << pt.x << "," << pt.y << ")";
      }
    }
  }
  EXPECT_GT(checked, 1000);  // the skip must not hollow out the test
}

TEST(RefineEdgeIndex, BandsMatchCrossingPredicateExactly) {
  const PolygonSet polys = test::random_polygon_set(
      91, GeoBox{0.5, 0.5, 9.5, 9.5}, 10, /*holes=*/true);
  const PolygonSoA soa = PolygonSoA::build(polys);
  const GeoTransform t(0.0, 10.0, 0.1, 0.1);
  const std::int64_t rows = 100;
  std::vector<PolygonId> all(polys.size());
  std::iota(all.begin(), all.end(), PolygonId{0});
  const EdgeIndex index = EdgeIndex::build(soa, t, rows, all);
  ASSERT_EQ(index.polygon_count(), polys.size());

  const std::span<const double> x_v = soa.x_v();
  const std::span<const double> y_v = soa.y_v();
  std::uint64_t entries = 0;
  for (PolygonId pid = 0; pid < polys.size(); ++pid) {
    const auto [p_f, p_t] = soa.vertex_range(pid);
    for (std::int64_t r = 0; r < rows; ++r) {
      const double py = t.cell_center(r, 0).y;
      // Reference band: replay the Fig.-5 loop's edge walk and keep the
      // edges whose y-span crosses the scanline under the half-open rule.
      std::vector<std::uint32_t> expect;
      for (std::uint32_t j = p_f; j + 1 < p_t; ++j) {
        if (x_v[j + 1] == 0.0 && y_v[j + 1] == 0.0) {
          ++j;  // sentinel edge + the next one are never tested
          continue;
        }
        const double y0 = y_v[j];
        const double y1 = y_v[j + 1];
        if (((y0 <= py) && (py < y1)) || ((y1 <= py) && (py < y0))) {
          expect.push_back(j);
        }
      }
      const std::span<const std::uint32_t> got = index.row_edges(pid, r);
      std::vector<std::uint32_t> got_sorted(got.begin(), got.end());
      std::sort(got_sorted.begin(), got_sorted.end());
      std::sort(expect.begin(), expect.end());
      ASSERT_EQ(got_sorted, expect) << "polygon " << pid << " row " << r;
      entries += got.size();
    }
  }
  EXPECT_EQ(index.stats().bucket_entries, entries);
  EXPECT_GT(index.stats().edges_dropped, 0u);  // ring sentinels exist
}

TEST(RefineEdgeIndex, OutOfBandRowsAreEmpty) {
  PolygonSet set;
  set.add(Polygon({{{0.5, 2.5}, {3.5, 2.5}, {3.5, 4.5}, {0.5, 4.5}}}));
  const PolygonSoA soa = PolygonSoA::build(set);
  const GeoTransform t(0.0, 10.0, 1.0, 1.0);
  const std::vector<PolygonId> only = {0};
  const EdgeIndex index = EdgeIndex::build(soa, t, 10, only);
  // Centers at y = 9.5 .. 0.5. The square's vertical edges span
  // [2.5, 4.5) under the half-open crossing rule (horizontal edges are
  // dropped), so only the centers 3.5 (row 6) and 2.5 (row 7, the closed
  // end) are banded; 4.5 (row 5) falls on the open end.
  EXPECT_TRUE(index.row_edges(0, 0).empty());
  EXPECT_TRUE(index.row_edges(0, 4).empty());   // y=5.5 above the span
  EXPECT_TRUE(index.row_edges(0, 5).empty());   // y=4.5 on the open end
  EXPECT_FALSE(index.row_edges(0, 6).empty());  // y=3.5 inside
  EXPECT_FALSE(index.row_edges(0, 7).empty());  // y=2.5 on the closed end
  EXPECT_TRUE(index.row_edges(0, 8).empty());   // y=1.5 below
  EXPECT_TRUE(index.row_edges(0, 9).empty());
}

TEST(RefineEdgeIndex, IndexesOnlyTheListedZones) {
  const PolygonSet polys = test::random_polygon_set(
      37, GeoBox{0.5, 0.5, 9.5, 9.5}, 6, /*holes=*/true);
  const PolygonSoA soa = PolygonSoA::build(polys);
  const GeoTransform t(0.0, 10.0, 0.1, 0.1);
  const std::int64_t rows = 100;
  std::vector<PolygonId> all(polys.size());
  std::iota(all.begin(), all.end(), PolygonId{0});
  const std::vector<PolygonId> listed = {1, 4};
  const EdgeIndex full = EdgeIndex::build(soa, t, rows, all);
  const EdgeIndex part = EdgeIndex::build(soa, t, rows, listed);
  ASSERT_EQ(part.polygon_count(), polys.size());

  std::uint64_t entries = 0;
  for (PolygonId pid = 0; pid < polys.size(); ++pid) {
    const bool is_listed =
        std::find(listed.begin(), listed.end(), pid) != listed.end();
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::span<const std::uint32_t> want = full.row_edges(pid, r);
      const std::span<const std::uint32_t> got = part.row_edges(pid, r);
      if (!is_listed) {
        ASSERT_TRUE(got.empty()) << "unlisted zone " << pid << " row " << r;
        continue;
      }
      ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                std::vector<std::uint32_t>(want.begin(), want.end()))
          << "zone " << pid << " row " << r;
      entries += got.size();
    }
  }
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(part.stats().bucket_entries, entries);
  EXPECT_LT(part.stats().bucket_entries, full.stats().bucket_entries);
}

TEST(RefineAuto, ResolvesByEdgeDensity) {
  const DemRaster raster = test::random_raster(
      64, 64, 7, 9, GeoTransform(0.0, 6.4, 0.1, 0.1));
  const TilingScheme tiling(64, 64, 16);

  // Sparse: one triangle, 3 tested edges per pair -> brute.
  PolygonSet sparse;
  sparse.add(Polygon({{{0.7, 0.7}, {5.7, 0.9}, {2.9, 5.7}}}));
  const RefineRun lo =
      run_refine(raster, tiling, sparse, 10, RefineStrategy::kAuto);
  EXPECT_EQ(lo.rc.strategy, RefineStrategy::kBrute);
  EXPECT_EQ(lo.rc.rows_scanned, 0u);

  // Dense: a 64-vertex star, 64 tested edges per pair -> scanline.
  std::mt19937 rng(5);
  PolygonSet dense;
  dense.add(test::random_star_polygon(rng, 3.2, 3.2, 2.8, 64));
  const RefineRun hi =
      run_refine(raster, tiling, dense, 10, RefineStrategy::kAuto);
  EXPECT_EQ(hi.rc.strategy, RefineStrategy::kScanline);
  EXPECT_GT(hi.rc.rows_scanned, 0u);

  // Either way the result equals the explicitly-requested strategy's.
  const RefineRun lo_brute =
      run_refine(raster, tiling, sparse, 10, RefineStrategy::kBrute);
  const RefineRun hi_scan =
      run_refine(raster, tiling, dense, 10, RefineStrategy::kScanline);
  EXPECT_EQ(lo.hist, lo_brute.hist);
  EXPECT_EQ(hi.hist, hi_scan.hist);
}

TEST(RefinePipeline, StrategiesAgreeEndToEnd) {
  Device dev;
  const DemRaster raster = test::random_raster(
      90, 110, 21, 99, GeoTransform(0.0, 9.0, 0.1, 0.1));
  const PolygonSet polys = test::random_polygon_set(
      17, GeoBox{0.5, 0.5, 10.5, 8.5}, 10, /*holes=*/true);
  const HistogramSet expect = zonal_mbb_filter(raster, polys, 100);

  const ZonalResult brute =
      ZonalPipeline(dev, {.tile_size = 10,
                          .bins = 100,
                          .refine_strategy = RefineStrategy::kBrute})
          .run(raster, polys);
  const ZonalResult scan =
      ZonalPipeline(dev, {.tile_size = 10,
                          .bins = 100,
                          .refine_strategy = RefineStrategy::kScanline})
          .run(raster, polys);
  const ZonalResult autos =
      ZonalPipeline(dev, {.tile_size = 10,
                          .bins = 100,
                          .refine_strategy = RefineStrategy::kAuto})
          .run(raster, polys);
  EXPECT_EQ(brute.per_polygon, expect);
  EXPECT_EQ(scan.per_polygon, expect);
  EXPECT_EQ(autos.per_polygon, expect);

  // Work-counter contract survives the full pipeline.
  EXPECT_EQ(brute.work.pip_rows_scanned, 0u);
  EXPECT_EQ(brute.work.pip_run_cells, 0u);
  EXPECT_GT(scan.work.pip_rows_scanned, 0u);
  EXPECT_EQ(scan.work.pip_run_cells, scan.work.pip_cell_tests);
  EXPECT_EQ(brute.work.pip_cell_tests, scan.work.pip_cell_tests);
  EXPECT_LE(scan.work.pip_edge_tests, brute.work.pip_edge_tests);
}

// A zone holding more than its share of the boundary tiles splits across
// blocks, which count into private rows and merge them into the zone row.
// The split run must match the per-cell oracle, and its classification
// work must equal a 1-thread pool's, where no group splits. Nodata cells
// and values past the bin count go through the private rows too.
TEST(RefineSplitChunks, ZoneOverItsShareMatchesOracleAndOneThreadRun) {
  constexpr BinIndex kBins = 200;
  DemRaster raster = test::random_raster(96, 80, 11, 299,
                                         GeoTransform(0.0, 9.6, 0.1, 0.1));
  raster.set_nodata(7);
  std::mt19937 rng(12);
  PolygonSet zones;
  zones.add(test::random_star_polygon(rng, 4.0, 4.8, 3.6, 64,
                                      /*with_hole=*/true));
  zones.add(Polygon({{{6.55, 0.45}, {7.45, 0.45}, {7.05, 1.35}}}));
  const HistogramSet oracle = zonal_scanline(raster, zones, kBins);

  const ZonalConfig base{.tile_size = 8, .bins = kBins};
  const ZonalPlan plan = make_plan(
      zones, TilingScheme(raster.rows(), raster.cols(), base.tile_size),
      raster.transform());
  const std::vector<ZoneChunk> chunks =
      plan_zone_chunks(plan.pairing.intersect, 4);
  EXPECT_TRUE(std::any_of(chunks.begin(), chunks.end(),
                          [](const ZoneChunk& c) { return !c.owned; }));
  EXPECT_TRUE(std::any_of(chunks.begin(), chunks.end(),
                          [](const ZoneChunk& c) { return c.owned; }));

  ThreadPool four_threads(4);
  ThreadPool one_thread(1);
  Device four(DeviceProfile::gtx_titan(), &four_threads);
  Device one(DeviceProfile::gtx_titan(), &one_thread);
  for (const RefineStrategy s :
       {RefineStrategy::kBrute, RefineStrategy::kScanline}) {
    SCOPED_TRACE(s == RefineStrategy::kBrute ? "brute" : "scanline");
    ZonalConfig cfg = base;
    cfg.refine_strategy = s;
    const ZonalResult split = ZonalPipeline(four, cfg).run(raster, zones);
    const ZonalResult whole = ZonalPipeline(one, cfg).run(raster, zones);
    EXPECT_EQ(split.per_polygon, oracle);
    EXPECT_EQ(whole.per_polygon, oracle);
    EXPECT_GT(split.work.pip_cell_tests, 0u);
    EXPECT_EQ(split.work.pip_cell_tests, whole.work.pip_cell_tests);
    EXPECT_EQ(split.work.pip_edge_tests, whole.work.pip_edge_tests);
    EXPECT_EQ(split.work.pip_rows_scanned, whole.work.pip_rows_scanned);
    EXPECT_EQ(split.work.cells_in_polygons, oracle.total());
    EXPECT_EQ(split.work.values_clamped, whole.work.values_clamped);
  }
}

}  // namespace
}  // namespace zh
