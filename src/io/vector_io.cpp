#include "io/vector_io.hpp"

#include <fstream>
#include <string_view>

#include "common/error.hpp"
#include "geom/wkt.hpp"
#include "obs/obs.hpp"

namespace zh {

void write_polygon_tsv(const std::string& path, const PolygonSet& set) {
  std::ofstream os(path);
  ZH_REQUIRE_IO(os.is_open(), "cannot open for write: ", path);
  for (PolygonId id = 0; id < set.size(); ++id) {
    os << set.name(id) << '\t' << to_wkt(set[id]) << '\n';
  }
  os.flush();  // surface an error in the last buffered block here
  ZH_REQUIRE_IO(os.good(), "write failed: ", path);
}

PolygonSet read_polygon_tsv(const std::string& path) {
  ZH_TRACE_SPAN("io.read_polygon_tsv", "io");
  std::ifstream is(path);
  ZH_REQUIRE_IO(is.is_open(), "cannot open for read: ", path);
  PolygonSet set;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto tab = line.find('\t');
    ZH_REQUIRE_IO(tab != std::string::npos, "missing TAB on line ", lineno,
                  " of ", path);
    set.add(parse_wkt(std::string_view(line).substr(tab + 1)),
            line.substr(0, tab));
  }
  return set;
}

}  // namespace zh
