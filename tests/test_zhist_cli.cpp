// End-to-end checks of the zhist binary built alongside this suite:
// exit codes and outputs of the .bq paths.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "io/ascii_grid.hpp"
#include "io/vector_io.hpp"
#include "io/zgrid.hpp"
#include "obs/json.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

class ZhistCli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Run `zhist <args>` with output discarded; returns its exit code.
  static int zhist(const std::string& args) {
    const std::string cmd =
        std::string("'") + ZH_ZHIST + "' " + args + " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::filesystem::path dir_;
};

TEST_F(ZhistCli, EncodeRejectsRasterWithNodata) {
  // A .bq container has no nodata field: encoding must fail loudly
  // instead of writing a file whose nodata cells later get counted.
  DemRaster r = test::random_raster(24, 24, 5, 63,
                                    GeoTransform(0.0, 2.4, 0.1, 0.1));
  r.set_nodata(7);
  write_ascii_grid(path("r.asc"), r);
  EXPECT_EQ(zhist("encode '" + path("r.asc") + "' '" + path("r.bq") +
                  "' --tile 8"),
            1);
  EXPECT_FALSE(std::filesystem::exists(path("r.bq")));
}

TEST_F(ZhistCli, HistOnBqTimesStep0AndMatchesZgrid) {
  const DemRaster r = test::random_raster(48, 64, 9, 80,
                                          GeoTransform(0.0, 4.8, 0.1, 0.1));
  write_zgrid(path("r.zgrid"), r);
  write_polygon_tsv(path("zones.tsv"),
                    test::random_polygon_set(
                        4, GeoBox{0.4, 0.4, 4.0, 4.4}, 6, true));
  ASSERT_EQ(zhist("encode '" + path("r.zgrid") + "' '" + path("r.bq") +
                  "' --tile 8"),
            0);
  const std::string common =
      "'" + path("zones.tsv") + "' --tile 8 --bins 64 -o ";
  ASSERT_EQ(zhist("hist '" + path("r.zgrid") + "' " + common + "'" +
                  path("zgrid.csv") + "'"),
            0);
  ASSERT_EQ(zhist("hist '" + path("r.bq") + "' " + common + "'" +
                  path("bq.csv") + "' --metrics '" + path("m.json") + "'"),
            0);

  EXPECT_FALSE(slurp(path("zgrid.csv")).empty());
  EXPECT_EQ(slurp(path("bq.csv")), slurp(path("zgrid.csv")));
  const obs::JsonValue report = obs::parse_json_file(path("m.json"));
  const obs::JsonValue* times = report.find("times_s");
  ASSERT_NE(times, nullptr);
  const obs::JsonValue* step0 = times->find("step0");
  ASSERT_NE(step0, nullptr);
  EXPECT_GT(step0->number, 0.0);
}

}  // namespace
}  // namespace zh
