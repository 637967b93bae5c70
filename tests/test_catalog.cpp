#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "core/baseline.hpp"
#include "data/dem_synth.hpp"
#include "io/bq_file.hpp"
#include "io/catalog.hpp"
#include "io/vector_io.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("zh_catalog_" + std::to_string(::getpid())))
               .string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CatalogTest, WriteOpenRoundTrip) {
  const DemRaster a = generate_dem(64, 64, GeoTransform(0.0, 6.4, 0.1,
                                                        0.1));
  const DemRaster b = generate_dem(64, 96, GeoTransform(6.4, 6.4, 0.1,
                                                        0.1));
  const BqCompressedRaster ca = BqCompressedRaster::encode(a, 8);
  const BqCompressedRaster cb = BqCompressedRaster::encode(b, 8);
  const PolygonSet zones = test::random_polygon_set(
      3, GeoBox{0.5, 0.5, 15.5, 5.9}, 4, true);

  write_catalog(dir_, {{"west", &ca}, {"east", &cb}}, zones);
  const Catalog catalog = open_catalog(dir_);
  EXPECT_EQ(catalog.raster_files.size(), 2u);
  EXPECT_EQ(catalog.zones_file, "zones.tsv");

  const DemRaster decoded = read_bq(catalog.raster_path(0)).decode_all();
  EXPECT_TRUE(std::equal(decoded.cells().begin(), decoded.cells().end(),
                         a.cells().begin()));
  EXPECT_EQ(read_polygon_tsv(catalog.zones_path()).size(), zones.size());
}

TEST_F(CatalogTest, RunMatchesInMemoryReferenceBothModes) {
  const DemRaster a = generate_dem(
      64, 64, GeoTransform(0.0, 6.4, 0.1, 0.1), {.max_value = 99});
  const DemRaster b = generate_dem(
      64, 96, GeoTransform(6.4, 6.4, 0.1, 0.1), {.max_value = 99});
  const BqCompressedRaster ca = BqCompressedRaster::encode(a, 8);
  const BqCompressedRaster cb = BqCompressedRaster::encode(b, 8);
  const PolygonSet zones = test::random_polygon_set(
      9, GeoBox{0.5, 0.5, 15.5, 5.9}, 5, false);
  write_catalog(dir_, {{"west", &ca}, {"east", &cb}}, zones);
  const Catalog catalog = open_catalog(dir_);

  Device dev;
  HistogramSet expect(zones.size(), 100);
  expect.add(zonal_scanline(a, zones, 100));
  expect.add(zonal_scanline(b, zones, 100));

  const CatalogRunResult r =
      run_catalog(dev, catalog, {.tile_size = 8, .bins = 100});
  EXPECT_EQ(r.per_polygon, expect);
  EXPECT_EQ(r.rasters_processed, 2u);
  EXPECT_GT(r.bytes_read, 0u);
}

TEST_F(CatalogTest, MalformedManifestsThrow) {
  EXPECT_THROW(open_catalog(dir_ + "_missing"), IoError);

  std::filesystem::create_directories(dir_);
  auto write_manifest = [&](const char* body) {
    std::ofstream os(std::filesystem::path(dir_) / "catalog.txt");
    os << body;
  };
  write_manifest("wrong header\n");
  EXPECT_THROW(open_catalog(dir_), IoError);
  write_manifest("zhcatalog 1\nraster a.bq\n");  // no zones entry
  EXPECT_THROW(open_catalog(dir_), IoError);
  write_manifest("zhcatalog 1\nzones zones.tsv\n");  // no rasters
  EXPECT_THROW(open_catalog(dir_), IoError);
  write_manifest("zhcatalog 1\nzones zones.tsv\nraster a.bq\n");
  EXPECT_THROW(open_catalog(dir_), IoError);  // files do not exist
  write_manifest("zhcatalog 1\nbogus entry\n");
  EXPECT_THROW(open_catalog(dir_), IoError);
}

TEST_F(CatalogTest, RejectsPathEscapingNames) {
  const DemRaster a = test::random_raster(8, 8, 1, 9);
  const BqCompressedRaster ca = BqCompressedRaster::encode(a, 8);
  EXPECT_THROW(
      write_catalog(dir_, {{"../evil", &ca}}, PolygonSet{}),
      InvalidArgument);
  EXPECT_THROW(write_catalog(dir_, {}, PolygonSet{}), InvalidArgument);
}

}  // namespace
}  // namespace zh
