// The .bq compressed container: round trip and corruption detection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/dem_synth.hpp"
#include "io/bq_file.hpp"

namespace zh {
namespace {

class BqFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_bq_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(BqFileTest, RoundTripPreservesEverything) {
  const DemRaster dem = generate_dem(
      130, 170, GeoTransform(-101.5, 43.25, 0.01, 0.01), {.seed = 3});
  const BqCompressedRaster orig = BqCompressedRaster::encode(dem, 48);
  const std::string path = (dir_ / "terrain.bq").string();
  write_bq(path, orig);
  const BqCompressedRaster back = read_bq(path);

  EXPECT_EQ(back.tiling(), orig.tiling());
  EXPECT_EQ(back.transform(), orig.transform());
  EXPECT_EQ(back.compressed_bytes(), orig.compressed_bytes());
  const DemRaster decoded = back.decode_all();
  EXPECT_TRUE(std::equal(decoded.cells().begin(), decoded.cells().end(),
                         dem.cells().begin()));
}

TEST_F(BqFileTest, CorruptFilesThrow) {
  EXPECT_THROW(read_bq((dir_ / "missing.bq").string()), IoError);
  {
    std::ofstream os((dir_ / "bad.bq").string(), std::ios::binary);
    os << "NOPE";
  }
  EXPECT_THROW(read_bq((dir_ / "bad.bq").string()), IoError);

  // Truncate a valid file mid-payload.
  const DemRaster dem = generate_dem(64, 64, GeoTransform(0, 1, 0.01,
                                                          0.01));
  const std::string path = (dir_ / "trunc.bq").string();
  write_bq(path, BqCompressedRaster::encode(dem, 32));
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - 10);
  EXPECT_THROW(read_bq(path), IoError);
}

}  // namespace
}  // namespace zh
