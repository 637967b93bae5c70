#include "io/catalog.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "io/bq_file.hpp"
#include "io/vector_io.hpp"

namespace zh {

namespace fs = std::filesystem;

std::string Catalog::zones_path() const {
  return (fs::path(directory) / zones_file).string();
}

std::string Catalog::raster_path(std::size_t i) const {
  ZH_REQUIRE(i < raster_files.size(), "raster index out of range");
  return (fs::path(directory) / raster_files[i]).string();
}

void write_catalog(
    const std::string& directory,
    const std::vector<std::pair<std::string, const BqCompressedRaster*>>&
        rasters,
    const PolygonSet& zones) {
  ZH_REQUIRE(!rasters.empty(), "a catalog needs at least one raster");
  fs::create_directories(directory);

  write_polygon_tsv((fs::path(directory) / "zones.tsv").string(), zones);
  for (const auto& [name, raster] : rasters) {
    ZH_REQUIRE(raster != nullptr, "null raster in catalog");
    ZH_REQUIRE(name.find('/') == std::string::npos &&
                   name.find("..") == std::string::npos,
               "raster names must be plain file stems");
    write_bq((fs::path(directory) / (name + ".bq")).string(), *raster);
  }

  std::ofstream manifest(fs::path(directory) / "catalog.txt");
  ZH_REQUIRE_IO(manifest.is_open(), "cannot write manifest in ",
                directory);
  manifest << "zhcatalog 1\n";
  manifest << "zones zones.tsv\n";
  for (const auto& [name, raster] : rasters) {
    manifest << "raster " << name << ".bq\n";
  }
  ZH_REQUIRE_IO(manifest.good(), "manifest write failed in ", directory);
}

Catalog open_catalog(const std::string& directory) {
  Catalog catalog;
  catalog.directory = directory;
  std::ifstream manifest(fs::path(directory) / "catalog.txt");
  ZH_REQUIRE_IO(manifest.is_open(), "no catalog.txt in ", directory);

  std::string line;
  ZH_REQUIRE_IO(static_cast<bool>(std::getline(manifest, line)) &&
                    line == "zhcatalog 1",
                "unsupported catalog header in ", directory);
  std::size_t lineno = 1;
  while (std::getline(manifest, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    std::string file;
    ZH_REQUIRE_IO(static_cast<bool>(ls >> kind >> file),
                  "malformed manifest line ", lineno, " in ", directory);
    if (kind == "zones") {
      catalog.zones_file = file;
    } else if (kind == "raster") {
      catalog.raster_files.push_back(file);
    } else {
      throw IoError("unknown manifest entry '" + kind + "' in " +
                    directory);
    }
  }
  ZH_REQUIRE_IO(!catalog.zones_file.empty(),
                "catalog has no zone layer: ", directory);
  ZH_REQUIRE_IO(!catalog.raster_files.empty(),
                "catalog has no rasters: ", directory);
  ZH_REQUIRE_IO(fs::exists(catalog.zones_path()),
                "missing zone file: ", catalog.zones_path());
  for (std::size_t i = 0; i < catalog.raster_files.size(); ++i) {
    ZH_REQUIRE_IO(fs::exists(catalog.raster_path(i)),
                  "missing raster file: ", catalog.raster_path(i));
  }
  return catalog;
}

CatalogRunResult run_catalog(Device& device, const Catalog& catalog,
                             const ZonalConfig& config) {
  const PolygonSet zones = read_polygon_tsv(catalog.zones_path());

  CatalogRunResult result;
  result.per_polygon = HistogramSet(zones.size(), config.bins);
  const ZonalPipeline pipeline(device, config);

  for (std::size_t i = 0; i < catalog.raster_files.size(); ++i) {
    const std::string path = catalog.raster_path(i);
    result.bytes_read += fs::file_size(path);
    const BqCompressedRaster compressed = read_bq(path);
    const ZonalResult r = pipeline.run(compressed, zones);
    result.per_polygon.add(r.per_polygon);
    result.times += r.times;
    result.work += r.work;
    ++result.rasters_processed;
  }
  return result;
}

}  // namespace zh
