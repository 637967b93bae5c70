// Partitioned-run equivalence, histogram CSV round-trip and failure
// injection (corrupted inputs must raise IoError, never crash).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>

#include "bqtree/bqtree.hpp"
#include "core/baseline.hpp"
#include "core/cluster_driver.hpp"
#include "core/pipeline.hpp"
#include "geom/wkt.hpp"
#include "io/histogram_io.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(Partitioned, EqualsWholeRasterRun) {
  Device dev;
  std::vector<DemRaster> rasters;
  rasters.push_back(test::random_raster(
      96, 128, 9, 199, GeoTransform(0.0, 9.6, 0.1, 0.1)));
  const PolygonSet zones = test::random_polygon_set(
      13, GeoBox{0.5, 0.5, 12.3, 9.1}, 8, /*holes=*/true);
  ClusterRunConfig cfg;
  cfg.zonal = {.tile_size = 16, .bins = 200};

  const ZonalResult whole =
      ZonalPipeline(dev, cfg.zonal).run(rasters[0], zones);
  for (const auto& [pr, pc] :
       {std::pair{1, 1}, std::pair{2, 2}, std::pair{3, 4},
        std::pair{6, 8}}) {
    const ClusterRunResult parts =
        run_cluster_zonal(rasters, {{pr, pc}}, zones, cfg);
    EXPECT_EQ(parts.merged, whole.per_polygon)
        << pr << "x" << pc << " partitions";
    EXPECT_EQ(parts.work.cells_total, whole.work.cells_total);
    EXPECT_EQ(parts.work.cells_in_polygons, whole.work.cells_in_polygons);
  }
}

class HistCsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_histcsv_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(HistCsvTest, RoundTrip) {
  HistogramSet h(3, 100);
  std::mt19937 rng(2);
  std::uniform_int_distribution<BinIndex> bin(0, 99);
  for (int i = 0; i < 500; ++i) h.of(i % 3)[bin(rng)] += 1 + i % 7;

  const std::string path = (dir_ / "h.csv").string();
  write_histogram_csv(path, h);
  const HistogramSet back = read_histogram_csv(path, 3, 100);
  EXPECT_EQ(back, h);
}

TEST_F(HistCsvTest, EmptyHistogramRoundTrips) {
  const HistogramSet h(2, 10);
  const std::string path = (dir_ / "e.csv").string();
  write_histogram_csv(path, h);
  EXPECT_EQ(read_histogram_csv(path, 2, 10), h);
}

TEST_F(HistCsvTest, MalformedRowsThrow) {
  auto write = [&](const char* name, const char* body) {
    std::ofstream os(dir_ / name);
    os << body;
    return (dir_ / name).string();
  };
  EXPECT_THROW(read_histogram_csv(write("a.csv", "bogus header\n"), 1, 1),
               IoError);
  EXPECT_THROW(read_histogram_csv(
                   write("b.csv", "zone,bin,count\n0;1;2\n"), 1, 10),
               IoError);
  EXPECT_THROW(read_histogram_csv(
                   write("c.csv", "zone,bin,count\n9,1,2\n"), 1, 10),
               IoError);
  EXPECT_THROW(read_histogram_csv(
                   write("d.csv", "zone,bin,count\n0,99,2\n"), 1, 10),
               IoError);
  EXPECT_THROW(read_histogram_csv((dir_ / "missing.csv").string(), 1, 1),
               IoError);
}

TEST(Fuzz, CorruptBqStreamsNeverCrash) {
  // Bit-flip and truncation fuzzing of the BQ-Tree decoder: every
  // corruption must either decode to *something* or throw zh::Error --
  // never crash or loop.
  std::mt19937 rng(11);
  const DemRaster dem = test::random_raster(48, 48, 4, 3000);
  const BqEncodedTile clean = bq_encode(dem.cells(), 48, 48);
  std::vector<CellValue> out(48 * 48);

  int threw = 0;
  for (int trial = 0; trial < 300; ++trial) {
    BqEncodedTile tile = clean;
    if (trial % 3 == 0 && !tile.payload.empty()) {
      // Truncate.
      tile.payload.resize(rng() % tile.payload.size());
    } else if (!tile.payload.empty()) {
      // Flip 1-8 random bits.
      const int flips = 1 + static_cast<int>(rng() % 8);
      for (int f = 0; f < flips; ++f) {
        tile.payload[rng() % tile.payload.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
      }
    }
    try {
      bq_decode(tile, out);
    } catch (const Error&) {
      ++threw;
    }
  }
  // Truncations virtually always throw; some bit flips decode silently
  // to different data (the format has no checksum, as in the paper).
  EXPECT_GT(threw, 0);
}

TEST(Fuzz, GarbageWktNeverCrashes) {
  std::mt19937 rng(13);
  const std::string alphabet = "POLYGON MULTI(),-0123456789. e";
  int parsed = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string s = "POLYGON ((";
    const int len = static_cast<int>(rng() % 60);
    for (int i = 0; i < len; ++i) {
      s.push_back(alphabet[rng() % alphabet.size()]);
    }
    try {
      (void)parse_wkt(s);
      ++parsed;
    } catch (const Error&) {
      // expected for nearly every input
    }
  }
  EXPECT_LT(parsed, 50);  // almost all garbage must be rejected
}

TEST(Fuzz, RandomPipelineConfigsStayExact) {
  // Randomized differential testing: arbitrary small configs against the
  // scanline oracle.
  std::mt19937 rng(17);
  Device dev;
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t rows = 20 + static_cast<std::int64_t>(rng() % 60);
    const std::int64_t cols = 20 + static_cast<std::int64_t>(rng() % 60);
    const std::int64_t tile = 1 + static_cast<std::int64_t>(rng() % 40);
    const BinIndex bins = 2 + static_cast<BinIndex>(rng() % 200);
    const DemRaster raster = test::random_raster(
        rows, cols, static_cast<std::uint32_t>(rng()),
        static_cast<CellValue>(bins * 2),  // exercise clamping too
        GeoTransform(0.0, rows * 0.1, 0.1, 0.1));
    const PolygonSet zones = test::random_polygon_set(
        static_cast<std::uint32_t>(rng()),
        GeoBox{0.5, 0.5, cols * 0.1 - 0.5, rows * 0.1 - 0.5},
        1 + static_cast<int>(rng() % 6), (rng() % 2) == 0);

    const ZonalPipeline pipe(dev, {.tile_size = tile, .bins = bins});
    const ZonalResult got = pipe.run(raster, zones);
    const HistogramSet expect = zonal_scanline(raster, zones, bins);
    ASSERT_EQ(got.per_polygon, expect)
        << "trial " << trial << ": " << rows << "x" << cols << " tile "
        << tile << " bins " << bins;
  }
}

}  // namespace
}  // namespace zh
