#include "io/histogram_io.hpp"

#include <fstream>
#include <locale>
#include <sstream>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace zh {

void write_histogram_csv(const std::string& path, const HistogramSet& h) {
  ZH_TRACE_SPAN("io.write_histogram_csv", "io");
  std::ofstream os(path);
  ZH_REQUIRE_IO(os.is_open(), "cannot open for write: ", path);
  // Classic locale: a digit-grouping global locale would render counts
  // like "123.456" and break the reader.
  os.imbue(std::locale::classic());
  os << "zone,bin,count\n";
  // Only held zones can have a non-zero bin; they come in zone order.
  for (const PolygonId g : h.held()) {
    const auto row = h.of(g);
    for (BinIndex b = 0; b < h.bins(); ++b) {
      if (row[b] != 0) {
        os << g << ',' << b << ',' << row[b] << '\n';
      }
    }
  }
  os.flush();  // surface an error in the last buffered block here
  ZH_REQUIRE_IO(os.good(), "write failed: ", path);
}

HistogramSet read_histogram_csv(const std::string& path,
                                std::size_t groups, BinIndex bins) {
  std::ifstream is(path);
  ZH_REQUIRE_IO(is.is_open(), "cannot open for read: ", path);
  HistogramSet h(groups, bins);
  std::string line;
  ZH_REQUIRE_IO(static_cast<bool>(std::getline(is, line)),
                "empty histogram CSV: ", path);
  ZH_REQUIRE_IO(line == "zone,bin,count",
                "unexpected histogram CSV header in ", path);
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls(line);
    ls.imbue(std::locale::classic());
    std::uint64_t zone = 0;
    std::uint64_t bin = 0;
    std::uint64_t count = 0;
    char c1 = 0;
    char c2 = 0;
    ZH_REQUIRE_IO(
        static_cast<bool>(ls >> zone >> c1 >> bin >> c2 >> count) &&
            c1 == ',' && c2 == ',',
        "malformed row at line ", lineno, " of ", path);
    ZH_REQUIRE_IO(zone < groups, "zone id out of range at line ", lineno);
    ZH_REQUIRE_IO(bin < bins, "bin out of range at line ", lineno);
    h.row(zone)[bin] = static_cast<BinCount>(count);
  }
  return h;
}

}  // namespace zh
