// Step 1 properties (DESIGN.md invariant 2): per-tile histogram bin sums
// equal tile cell counts; counting strategies agree; nodata and clamping
// behave as documented.
#include <gtest/gtest.h>

#include <string>

#include "core/step1_tile_hist.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

class Step1Sweep : public ::testing::TestWithParam<std::int64_t> {};

INSTANTIATE_TEST_SUITE_P(TileSizes, Step1Sweep,
                         ::testing::Values(1, 7, 16, 60, 128));

TEST_P(Step1Sweep, BinSumsEqualTileCellCounts) {
  const std::int64_t tile = GetParam();
  Device dev;
  const DemRaster r = test::random_raster(130, 97, 21, 999);
  const TilingScheme tiling(r.rows(), r.cols(), tile);
  const HistogramSet h = tile_histograms(dev, r, tiling, 1000);
  ASSERT_EQ(h.groups(), tiling.tile_count());
  BinCount64 total = 0;
  for (TileId id = 0; id < tiling.tile_count(); ++id) {
    const CellWindow w = tiling.tile_window(id);
    ASSERT_EQ(h.group_total(id),
              static_cast<BinCount64>(w.cell_count()))
        << "tile " << id;
    total += h.group_total(id);
  }
  EXPECT_EQ(total, static_cast<BinCount64>(r.cell_count()));
}

TEST_P(Step1Sweep, HistogramCountsMatchDirectTally) {
  const std::int64_t tile = GetParam();
  Device dev;
  const DemRaster r = test::random_raster(64, 64, 5, 49);
  const TilingScheme tiling(r.rows(), r.cols(), tile);
  const HistogramSet h = tile_histograms(dev, r, tiling, 50);
  for (TileId id = 0; id < tiling.tile_count(); ++id) {
    const CellWindow w = tiling.tile_window(id);
    std::vector<BinCount> expect(50, 0);
    for (std::int64_t rr = w.row0; rr < w.row0 + w.rows; ++rr) {
      for (std::int64_t cc = w.col0; cc < w.col0 + w.cols; ++cc) {
        ++expect[r.at(rr, cc)];
      }
    }
    const auto got = h.of(id);
    for (BinIndex b = 0; b < 50; ++b) {
      ASSERT_EQ(got[b], expect[b]) << "tile " << id << " bin " << b;
    }
  }
}

TEST(Step1, AtomicAndPrivatizedModesAgree) {
  Device dev;
  const DemRaster r = test::random_raster(100, 100, 77, 255);
  const TilingScheme tiling(r.rows(), r.cols(), 32);
  const HistogramSet atomic =
      tile_histograms(dev, r, tiling, 256, CountMode::kAtomic);
  const HistogramSet priv =
      tile_histograms(dev, r, tiling, 256, CountMode::kPrivatized);
  EXPECT_EQ(atomic, priv);
}

TEST(Step1, NodataCellsAreSkipped) {
  Device dev;
  DemRaster r(10, 10);
  for (CellValue& v : r.cells()) v = 5;
  r.at(3, 3) = 1234;
  r.set_nodata(CellValue{1234});
  const TilingScheme tiling(10, 10, 10);
  const HistogramSet h = tile_histograms(dev, r, tiling, 10);
  EXPECT_EQ(h.group_total(0), 99u);
  EXPECT_EQ(h.of(0)[5], 99u);
}

TEST(Step1, OutOfRangeValuesClampToTopBin) {
  Device dev;
  DemRaster r(4, 4);
  for (CellValue& v : r.cells()) v = 9000;
  const TilingScheme tiling(4, 4, 4);
  const HistogramSet h = tile_histograms(dev, r, tiling, 100);
  EXPECT_EQ(h.of(0)[99], 16u);
}

TEST(Step1, MismatchedTilingThrows) {
  Device dev;
  const DemRaster r = test::random_raster(10, 10, 1, 9);
  const TilingScheme wrong(20, 10, 5);
  EXPECT_THROW(tile_histograms(dev, r, wrong, 10), InvalidArgument);
}

// The inside count folds a sub-row chunk into the zone row with checked
// adds: a bin that would pass 2^32 - 1 throws, naming the zone and the
// bin, with plain adds (one owned chunk on one thread) and with atomic
// adds (split chunks on four). The thread's scratch reads zero after the
// throw, so the next count on the pool is exact.
TEST(Step1, InsideCountRefusesToWrapAZoneRow) {
  constexpr BinIndex kBins = 4;
  const DemRaster r(64, 64, GeoTransform(), CellValue{3});
  const TilingScheme tiling(r.rows(), r.cols(), 8);
  PolygonTileGroups inside;
  inside.pid_v = {2};
  inside.pos_v = {0};
  inside.num_v = {tiling.tile_count()};
  for (TileId t = 0; t < tiling.tile_count(); ++t) inside.tid_v.push_back(t);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    Device dev(DeviceProfile::gtx_titan(), &pool);
    for (const ZoneChunk& chunk : plan_zone_chunks(inside, threads)) {
      EXPECT_EQ(chunk.owned, threads == 1);
      EXPECT_EQ(chunk_counting(chunk, tiling, kBins),
                ChunkCounting::kSubRows);
    }
    HistogramSet full(3, kBins, {2});
    full.row(2)[3] = 4294967280u;  // 2^32 - 16
    try {
      (void)count_inside_tiles(dev, r, tiling, inside, full);
      ADD_FAILURE() << "the zone row wrapped";
    } catch (const OverflowError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("zone 2, bin 3"), std::string::npos) << what;
    }
    HistogramSet empty(3, kBins, {2});
    const ZoneRowTally tally =
        count_inside_tiles(dev, r, tiling, inside, empty);
    EXPECT_EQ(tally.counted, 4096u);
    EXPECT_EQ(empty.of(2)[3], 4096u);
    EXPECT_EQ(empty.total(), 4096u);
  }
}

TEST(Step1, EmptyRaster) {
  Device dev;
  const DemRaster r(0, 0);
  const TilingScheme tiling(0, 0, 16);
  const HistogramSet h = tile_histograms(dev, r, tiling, 10);
  EXPECT_EQ(h.groups(), 0u);
}

}  // namespace
}  // namespace zh
