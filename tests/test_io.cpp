#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "io/ascii_grid.hpp"
#include "io/bq_file.hpp"
#include "io/catalog.hpp"
#include "io/histogram_io.hpp"
#include "io/vector_io.hpp"
#include "io/zgrid.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, ZgridRoundTrip) {
  DemRaster r = test::random_raster(37, 53, 1, 9000,
                                    GeoTransform(-110.25, 45.5, 0.01, 0.02));
  r.set_nodata(CellValue{65535});
  write_zgrid(path("a.zgrid"), r);
  const DemRaster back = read_zgrid(path("a.zgrid"));
  EXPECT_EQ(back, r);
}

TEST_F(IoTest, ZgridWithoutNodata) {
  const DemRaster r = test::random_raster(5, 5, 2, 10);
  write_zgrid(path("b.zgrid"), r);
  const DemRaster back = read_zgrid(path("b.zgrid"));
  EXPECT_FALSE(back.nodata().has_value());
  EXPECT_EQ(back, r);
}

TEST_F(IoTest, ZgridRejectsMissingFile) {
  EXPECT_THROW(read_zgrid(path("missing.zgrid")), IoError);
}

TEST_F(IoTest, ZgridRejectsBadMagic) {
  std::ofstream os(path("bad.zgrid"), std::ios::binary);
  os << "NOPEnope";
  os.close();
  EXPECT_THROW(read_zgrid(path("bad.zgrid")), IoError);
}

TEST_F(IoTest, ZgridRejectsTruncatedCells) {
  const DemRaster r = test::random_raster(10, 10, 3, 10);
  write_zgrid(path("t.zgrid"), r);
  std::filesystem::resize_file(path("t.zgrid"),
                               std::filesystem::file_size(path("t.zgrid")) -
                                   8);
  EXPECT_THROW(read_zgrid(path("t.zgrid")), IoError);
}

TEST_F(IoTest, AsciiGridRoundTrip) {
  DemRaster r = test::random_raster(12, 9, 4, 500,
                                    GeoTransform(-80.0, 35.0, 0.25, 0.25));
  r.set_nodata(CellValue{9999});
  write_ascii_grid(path("a.asc"), r);
  const DemRaster back = read_ascii_grid(path("a.asc"));
  EXPECT_EQ(back.rows(), r.rows());
  EXPECT_EQ(back.cols(), r.cols());
  EXPECT_EQ(back.nodata(), r.nodata());
  EXPECT_NEAR(back.transform().origin_x(), r.transform().origin_x(), 1e-9);
  EXPECT_NEAR(back.transform().origin_y(), r.transform().origin_y(), 1e-9);
  EXPECT_TRUE(std::equal(back.cells().begin(), back.cells().end(),
                         r.cells().begin()));
}

TEST_F(IoTest, AsciiGridRejectsNonSquareCells) {
  const DemRaster r(4, 4, GeoTransform(0, 4, 1.0, 2.0));
  EXPECT_THROW(write_ascii_grid(path("ns.asc"), r), InvalidArgument);
}

TEST_F(IoTest, AsciiGridRejectsMalformedHeader) {
  {
    std::ofstream os(path("h.asc"));
    os << "ncols 4\n1 2 3 4\n";
  }
  EXPECT_THROW(read_ascii_grid(path("h.asc")), IoError);
}

TEST_F(IoTest, AsciiGridRejectsOutOfRangeValue) {
  {
    std::ofstream os(path("v.asc"));
    os << "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
       << "1 70000\n";
  }
  EXPECT_THROW(read_ascii_grid(path("v.asc")), IoError);
}

TEST_F(IoTest, PolygonTsvRoundTrip) {
  PolygonSet set;
  set.add(Polygon({{{1, 1}, {4, 1}, {4, 4}, {1, 4}}}), "county A");
  Polygon multi({{{10, 10}, {20, 10}, {20, 20}}});
  multi.add_ring({{12, 12}, {14, 12}, {13, 14}});
  set.add(std::move(multi), "county B");

  write_polygon_tsv(path("polys.tsv"), set);
  const PolygonSet back = read_polygon_tsv(path("polys.tsv"));
  ASSERT_EQ(back.size(), set.size());
  for (PolygonId id = 0; id < set.size(); ++id) {
    EXPECT_EQ(back.name(id), set.name(id));
    ASSERT_EQ(back[id].ring_count(), set[id].ring_count());
    EXPECT_DOUBLE_EQ(back[id].area(), set[id].area());
  }
}

TEST_F(IoTest, PolygonTsvSkipsBlankLinesAndRejectsMissingTab) {
  {
    std::ofstream os(path("p1.tsv"));
    os << "\nA\tPOLYGON ((0 0, 1 0, 1 1, 0 0))\n\n";
  }
  EXPECT_EQ(read_polygon_tsv(path("p1.tsv")).size(), 1u);
  {
    std::ofstream os(path("p2.tsv"));
    os << "A POLYGON ((0 0, 1 0, 1 1, 0 0))\n";
  }
  EXPECT_THROW(read_polygon_tsv(path("p2.tsv")), IoError);
}

// Every writer flushes before it checks its stream, so an error in the
// last buffered block -- here the whole small file, refused by /dev/full
// -- is an IoError instead of being dropped by the stream's destructor.
TEST_F(IoTest, WritersReportAnErrorInTheirLastBlock) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const DemRaster r =
      test::random_raster(4, 4, 1, 50, GeoTransform(0.0, 0.4, 0.1, 0.1));
  const BqCompressedRaster bq = BqCompressedRaster::encode(r, 2);
  const PolygonSet zones =
      test::random_polygon_set(1, GeoBox{0.1, 0.1, 0.3, 0.3}, 1);
  HistogramSet h(1, 4);
  h.row(0)[2] = 3;
  EXPECT_THROW(write_histogram_csv("/dev/full", h), IoError);
  EXPECT_THROW(write_polygon_tsv("/dev/full", zones), IoError);
  EXPECT_THROW(write_zgrid("/dev/full", r), IoError);
  EXPECT_THROW(write_bq("/dev/full", bq), IoError);
  EXPECT_THROW(write_ascii_grid("/dev/full", r), IoError);
  // The catalog's manifest: its zone layer and raster go to the
  // directory, the manifest to /dev/full.
  std::filesystem::create_directories(path("cat"));
  std::filesystem::create_symlink("/dev/full", path("cat/catalog.txt"));
  EXPECT_THROW(write_catalog(path("cat"), {{"r", &bq}}, zones), IoError);
}

}  // namespace
}  // namespace zh
