// Malformed-input corpus for every text parser (WKT, ESRI ASCII grid,
// polygon TSV): each sample must raise IoError -- never crash, hang, or
// trigger an absurd allocation. The ASan/UBSan check stage runs this
// suite to catch parser memory bugs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "geom/wkt.hpp"
#include "io/ascii_grid.hpp"
#include "io/vector_io.hpp"

namespace zh {
namespace {

// ------------------------------------------------------------- WKT

TEST(ParserRobustness, WktCorpusThrowsIoError) {
  const char* corpus[] = {
      "",
      "   ",
      "CIRCLE (1 2)",
      "POLYGON",
      "POLYGON (",
      "POLYGON ((",
      "POLYGON ((1 2))",
      "POLYGON ((1 2, 3 4))",            // <3 distinct vertices
      "POLYGON ((1 2, 3 4, 5 six))",     // non-numeric coordinate
      "POLYGON ((1 2, 3 4, 5 6)",        // missing closing paren
      "POLYGON ((1 2, 3 4, 5 6))x",      // trailing garbage
      "POLYGON ((nan nan, 1 0, 0 1))",   // strtod accepts nan; we must not
      "POLYGON ((inf 0, 1 0, 0 1))",
      "POLYGON ((-inf 0, 1 0, 0 1))",
      "MULTIPOLYGON (((0 0, 1 0, 0 1)), ",
  };
  for (const char* wkt : corpus) {
    SCOPED_TRACE(std::string("WKT: \"") + wkt + '"');
    EXPECT_THROW((void)parse_wkt(wkt), IoError);
  }
}

// -------------------------------------------- file-based parsers

class ParserRobustnessFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_parser_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string write(const std::string& name,
                                  const std::string& content) const {
    const std::string p = (dir_ / name).string();
    std::ofstream os(p, std::ios::binary);
    os << content;
    return p;
  }

  std::filesystem::path dir_;
};

TEST_F(ParserRobustnessFiles, AsciiGridCorpusThrowsIoError) {
  const std::pair<const char*, const char*> corpus[] = {
      {"empty.asc", ""},
      {"junk.asc", "not a grid at all"},
      {"truncated_header.asc", "ncols 5\nnrows"},
      {"no_dims.asc", "xllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3"},
      {"negative_dims.asc",
       "ncols -3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3"},
      {"nonfinite_header.asc",
       "ncols 2\nnrows 2\nxllcorner nan\nyllcorner 0\ncellsize 1\n"
       "1 2 3 4"},
      {"truncated_data.asc",
       "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3 4"},
      {"negative_cell.asc",
       "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 -7"},
      {"overflow_cell.asc",
       "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 70000"},
      {"alpha_cell.asc",
       "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 x"},
  };
  for (const auto& [name, content] : corpus) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)read_ascii_grid(write(name, content)), IoError);
  }
}

TEST_F(ParserRobustnessFiles, AsciiGridAbsurdDimsRejectedBeforeAllocating) {
  // Headers declaring ~10^18 cells in a 60-byte file: the size guard
  // must fire before any attempt to allocate the raster (OOM killer
  // territory otherwise).
  const std::string p = write(
      "huge.asc",
      "ncols 1000000000\nnrows 1000000000\n"
      "xllcorner 0\nyllcorner 0\ncellsize 1\n0");
  EXPECT_THROW((void)read_ascii_grid(p), IoError);
  const std::string q = write(
      "huge2.asc",
      "ncols 99999999999999\nnrows 2\n"
      "xllcorner 0\nyllcorner 0\ncellsize 1\n0");
  EXPECT_THROW((void)read_ascii_grid(q), IoError);
}

TEST_F(ParserRobustnessFiles, PolygonTsvCorpusThrowsIoError) {
  const std::pair<const char*, const char*> corpus[] = {
      {"no_tab.tsv", "zoneA POLYGON ((0 0, 1 0, 0 1))"},
      {"bad_wkt.tsv", "zoneA\tPOLYGON (("},
      {"nan_wkt.tsv", "zoneA\tPOLYGON ((nan 0, 1 0, 0 1))"},
  };
  for (const auto& [name, content] : corpus) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)read_polygon_tsv(write(name, content)), IoError);
  }
}

}  // namespace
}  // namespace zh
