// BQ-Tree codec properties (DESIGN.md invariant 4): decode(encode(x)) == x
// for every raster, per-tile decode equals windowed full decode, and the
// compression behaviour the paper relies on (smooth DEM data compresses
// well; dropped all-zero bitplanes).
#include <gtest/gtest.h>

#include <random>

#include "bqtree/bitstream.hpp"
#include "bqtree/bqtree.hpp"
#include "bqtree/compressed_raster.hpp"
#include "data/dem_synth.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(BitStream, RoundTripBitsAndFields) {
  BitWriter w;
  w.put(true);
  w.put(false);
  w.put_bits(0b1011, 4);
  w.put_bits(0xDEADBEEF, 32);
  EXPECT_EQ(w.bit_count(), 38u);
  const auto bytes = w.take();

  BitReader r(bytes);
  EXPECT_TRUE(r.get());
  EXPECT_FALSE(r.get());
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_EQ(r.get_bits(32), 0xDEADBEEFu);
  EXPECT_EQ(r.position(), 38u);
}

TEST(BitStream, ExhaustionThrows) {
  BitWriter w;
  w.put(true);
  const auto bytes = w.take();
  BitReader r(bytes);
  r.get_bits(8);  // padding bits within the byte are readable
  EXPECT_THROW(r.get(), IoError);
}

class BqRoundTrip
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, BqRoundTrip,
    ::testing::Values(std::pair{1u, 1u}, std::pair{4u, 4u},
                      std::pair{7u, 13u}, std::pair{64u, 64u},
                      std::pair{100u, 37u}, std::pair{360u, 360u},
                      std::pair{1u, 257u}, std::pair{12u, 12u}));

TEST_P(BqRoundTrip, RandomDataDecodesExactly) {
  const auto [rows, cols] = GetParam();
  std::mt19937 rng(rows * 1000 + cols);
  std::uniform_int_distribution<std::uint32_t> dist(0, 0xFFFF);
  std::vector<CellValue> cells(static_cast<std::size_t>(rows) * cols);
  for (auto& v : cells) v = static_cast<CellValue>(dist(rng));

  const BqEncodedTile enc = bq_encode(cells, rows, cols);
  std::vector<CellValue> out(cells.size());
  bq_decode(enc, out);
  EXPECT_EQ(out, cells);
}

TEST_P(BqRoundTrip, SmoothDataDecodesExactly) {
  const auto [rows, cols] = GetParam();
  std::vector<CellValue> cells(static_cast<std::size_t>(rows) * cols);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      cells[static_cast<std::size_t>(r) * cols + c] =
          static_cast<CellValue>((r / 8) * 16 + (c / 8));
    }
  }
  const BqEncodedTile enc = bq_encode(cells, rows, cols);
  std::vector<CellValue> out(cells.size());
  bq_decode(enc, out);
  EXPECT_EQ(out, cells);
}

TEST(BqTree, ConstantRasterCompressesToAlmostNothing) {
  const std::uint32_t n = 256;
  std::vector<CellValue> cells(n * n, 1234);
  const BqEncodedTile enc = bq_encode(cells, n, n);
  // Each present bitplane is a single all-ones root node (2 bits).
  EXPECT_LT(enc.payload.size(), 16u);
  std::vector<CellValue> out(cells.size());
  bq_decode(enc, out);
  EXPECT_EQ(out, cells);
}

TEST(BqTree, AllZeroPlanesAreDropped) {
  std::vector<CellValue> cells(64 * 64, 0);
  cells[0] = 0b101;  // only planes 0 and 2 have any bits
  const BqEncodedTile enc = bq_encode(cells, 64, 64);
  EXPECT_EQ(enc.plane_mask, 0b101u);
  std::vector<CellValue> out(cells.size());
  bq_decode(enc, out);
  EXPECT_EQ(out, cells);
}

TEST(BqTree, EmptyTile) {
  const BqEncodedTile enc = bq_encode({}, 0, 0);
  EXPECT_EQ(enc.plane_mask, 0u);
  std::vector<CellValue> out;
  EXPECT_NO_THROW(bq_decode(enc, out));
}

TEST(BqTree, SizeMismatchThrows) {
  std::vector<CellValue> cells(10);
  EXPECT_THROW(bq_encode(cells, 3, 4), InvalidArgument);
  const BqEncodedTile enc = bq_encode(cells, 2, 5);
  std::vector<CellValue> out(9);
  EXPECT_THROW(bq_decode(enc, out), InvalidArgument);
}

TEST(BqTree, SmoothTerrainCompressesWell) {
  // The paper reports ~18% of raw size on real SRTM data; fBm terrain
  // should land in the same regime (well under half of raw).
  const DemRaster dem = generate_dem(
      720, 720, GeoTransform(-100.0, 40.0, 1.0 / 3600.0, 1.0 / 3600.0));
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 360);
  EXPECT_LT(comp.compression_ratio(), 0.5);
  EXPECT_GT(comp.compression_ratio(), 0.0);
}

TEST(BqTree, RandomNoiseDoesNotCompress) {
  const DemRaster noise = test::random_raster(256, 256, 5, 0xFFFF);
  const BqCompressedRaster comp = BqCompressedRaster::encode(noise, 128);
  // Incompressible input: ratio near (or above) 1.
  EXPECT_GT(comp.compression_ratio(), 0.9);
}

TEST(CompressedRaster, EncodeRejectsRasterWithNodata) {
  // The container has no field for a nodata value; encoding one would
  // make its nodata cells count after decoding.
  DemRaster r = test::random_raster(24, 24, 5, 63);
  r.set_nodata(CellValue{7});
  EXPECT_THROW((void)BqCompressedRaster::encode(r, 8), InvalidArgument);
}

TEST(CompressedRaster, DecodeTilesFillsOnlyListedTiles) {
  const DemRaster dem = test::random_raster(40, 56, 8, 500);
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 16);
  const std::vector<TileId> tiles = {1, 5};
  const DemRaster part = comp.decode_tiles(tiles);
  const TilingScheme& tiling = comp.tiling();
  for (TileId t = 0; t < tiling.tile_count(); ++t) {
    const bool listed = t == 1 || t == 5;
    const CellWindow w = tiling.tile_window(t);
    for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
      for (std::int64_t c = w.col0; c < w.col0 + w.cols; ++c) {
        ASSERT_EQ(part.at(r, c), listed ? dem.at(r, c) : 0)
            << "tile " << t;
      }
    }
  }
}

TEST(CompressedRaster, DecodeAllMatchesOriginal) {
  const DemRaster dem = generate_dem(
      300, 500, GeoTransform(-100.0, 40.0, 0.01, 0.01));
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 128);
  const DemRaster back = comp.decode_all();
  EXPECT_EQ(back.rows(), dem.rows());
  EXPECT_EQ(back.cols(), dem.cols());
  EXPECT_TRUE(std::equal(back.cells().begin(), back.cells().end(),
                         dem.cells().begin()));
}

TEST(CompressedRaster, PerTileDecodeMatchesWindow) {
  const DemRaster dem = test::random_raster(250, 170, 11, 6000);
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 64);
  const TilingScheme& tiling = comp.tiling();
  for (TileId id = 0; id < tiling.tile_count(); ++id) {
    const CellWindow w = tiling.tile_window(id);
    std::vector<CellValue> tile(static_cast<std::size_t>(w.cell_count()));
    comp.decode_tile(id, tile);
    for (std::int64_t r = 0; r < w.rows; ++r) {
      for (std::int64_t c = 0; c < w.cols; ++c) {
        ASSERT_EQ(tile[static_cast<std::size_t>(r * w.cols + c)],
                  dem.at(w.row0 + r, w.col0 + c))
            << "tile " << id << " local (" << r << "," << c << ")";
      }
    }
  }
}

TEST(CompressedRaster, ByteAccountingIsConsistent) {
  const DemRaster dem = test::random_raster(100, 100, 3, 100);
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 50);
  EXPECT_EQ(comp.raw_bytes(), 100u * 100u * sizeof(CellValue));
  EXPECT_GT(comp.compressed_bytes(), 0u);
}

}  // namespace
}  // namespace zh
