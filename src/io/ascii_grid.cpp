#include "io/ascii_grid.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>

#include "common/error.hpp"

namespace zh {

void write_ascii_grid(const std::string& path, const DemRaster& raster) {
  const GeoTransform& t = raster.transform();
  ZH_REQUIRE(std::abs(t.cell_w() - t.cell_h()) <
                 1e-12 * std::max(t.cell_w(), t.cell_h()),
             "ESRI ASCII grids require square cells");
  std::ofstream os(path);
  ZH_REQUIRE_IO(os.is_open(), "cannot open for write: ", path);
  // Classic locale: number round-trips must not depend on the global
  // locale (a comma decimal point or digit grouping corrupts the file).
  os.imbue(std::locale::classic());
  const GeoBox ext = raster.extent();
  os << "ncols " << raster.cols() << '\n';
  os << "nrows " << raster.rows() << '\n';
  os.precision(17);
  os << "xllcorner " << ext.min_x << '\n';
  os << "yllcorner " << ext.min_y << '\n';
  os << "cellsize " << t.cell_w() << '\n';
  if (raster.nodata()) {
    os << "NODATA_value " << *raster.nodata() << '\n';
  }
  for (std::int64_t r = 0; r < raster.rows(); ++r) {
    const auto row = raster.row(r);
    for (std::int64_t c = 0; c < raster.cols(); ++c) {
      if (c != 0) os << ' ';
      os << row[static_cast<std::size_t>(c)];
    }
    os << '\n';
  }
  os.flush();  // surface an error in the last buffered block here
  ZH_REQUIRE_IO(os.good(), "write failed: ", path);
}

DemRaster read_ascii_grid(const std::string& path) {
  std::ifstream is(path);
  ZH_REQUIRE_IO(is.is_open(), "cannot open for read: ", path);
  // Classic locale: number round-trips must not depend on the global
  // locale (a comma decimal point or digit grouping corrupts the file).
  is.imbue(std::locale::classic());

  std::int64_t ncols = -1;
  std::int64_t nrows = -1;
  double xll = 0.0;
  double yll = 0.0;
  double cellsize = 0.0;
  long nodata = -1;
  bool has_nodata = false;

  // Header: keyword value lines until the first purely numeric row.
  std::string key;
  while (true) {
    const auto pos = is.tellg();
    if (!(is >> key)) throw IoError("truncated ASCII grid header: " + path);
    if (key == "ncols") {
      is >> ncols;
    } else if (key == "nrows") {
      is >> nrows;
    } else if (key == "xllcorner") {
      is >> xll;
    } else if (key == "yllcorner") {
      is >> yll;
    } else if (key == "cellsize") {
      is >> cellsize;
    } else if (key == "NODATA_value" || key == "nodata_value") {
      is >> nodata;
      has_nodata = true;
    } else {
      is.seekg(pos);  // first data token: rewind and start reading cells
      break;
    }
    ZH_REQUIRE_IO(is.good(), "malformed ASCII grid header near '", key, "'");
  }
  ZH_REQUIRE_IO(ncols > 0 && nrows > 0 && cellsize > 0,
                "incomplete ASCII grid header in ", path);
  ZH_REQUIRE_IO(std::isfinite(xll) && std::isfinite(yll) &&
                    std::isfinite(cellsize),
                "non-finite ASCII grid header value in ", path);
  // Guard allocation before trusting the header: each declared cell needs
  // at least two bytes in the file (a digit plus a separator), so a header
  // whose cell count cannot fit in the file is lying. Check each dim
  // first so the product cannot overflow.
  constexpr std::int64_t kDimLimit = std::int64_t{1} << 31;
  ZH_REQUIRE_IO(ncols < kDimLimit && nrows < kDimLimit,
                "ASCII grid dims ", nrows, "x", ncols, " too large in ",
                path);
  std::error_code size_ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, size_ec);
  ZH_REQUIRE_IO(!size_ec, "cannot stat ", path);
  const std::uintmax_t cells = static_cast<std::uintmax_t>(nrows) *
                               static_cast<std::uintmax_t>(ncols);
  ZH_REQUIRE_IO(cells <= file_size,
                "ASCII grid header declares ", cells, " cells but ", path,
                " has only ", file_size, " bytes");

  const double origin_y = yll + cellsize * static_cast<double>(nrows);
  DemRaster raster(nrows, ncols,
                   GeoTransform(xll, origin_y, cellsize, cellsize));
  if (has_nodata) {
    ZH_REQUIRE_IO(nodata >= 0 &&
                      nodata <= std::numeric_limits<CellValue>::max(),
                  "NODATA_value out of uint16 range");
    raster.set_nodata(static_cast<CellValue>(nodata));
  }
  for (std::int64_t r = 0; r < nrows; ++r) {
    for (std::int64_t c = 0; c < ncols; ++c) {
      long v = 0;
      ZH_REQUIRE_IO(static_cast<bool>(is >> v), "truncated ASCII grid data");
      ZH_REQUIRE_IO(v >= 0 && v <= std::numeric_limits<CellValue>::max(),
                    "cell value ", v, " out of uint16 range");
      raster.at(r, c) = static_cast<CellValue>(v);
    }
  }
  return raster;
}

}  // namespace zh
