#include "io/bq_file.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

constexpr std::array<char, 4> kMagic = {'Z', 'B', 'Q', 'F'};
constexpr std::array<char, 4> kLegacyMagic = {'Z', 'B', 'Q', '1'};
constexpr std::uint32_t kVersion = 2;
/// rows + cols + tile_size + 4 doubles + tile count.
constexpr std::size_t kHeaderBytes = 3 * 8 + 4 * 8 + 8;
/// Fixed bytes per tile record before the variable payload.
constexpr std::uintmax_t kTileRecordBytes = 4 + 4 + 2 + 4;

static_assert(std::endian::native == std::endian::little,
              "bq I/O assumes a little-endian host");

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Writes raw bytes while folding them into a running CRC, so the
/// trailing checksum covers exactly what hit the stream.
class CrcWriter {
 public:
  explicit CrcWriter(std::ostream& os) : os_(os) {}

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(T));
  }

  void bytes(const void* data, std::size_t n) {
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
    crc_.update(data, n);
  }

  [[nodiscard]] std::uint32_t crc() const { return crc_.value(); }

 private:
  std::ostream& os_;
  Crc32 crc_;
};

/// Mirror of CrcWriter for reads; the caller compares crc() against the
/// stored checksum after consuming the covered region.
class CrcReader {
 public:
  CrcReader(std::istream& is, const std::string& path)
      : is_(is), path_(path) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    bytes(&v, sizeof(T));
    return v;
  }

  void bytes(void* data, std::size_t n) {
    is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    ZH_REQUIRE_IO(is_.good(), "unexpected end of bq stream in ", path_);
    crc_.update(data, n);
  }

  [[nodiscard]] std::uint32_t crc() const { return crc_.value(); }

 private:
  std::istream& is_;
  const std::string& path_;
  Crc32 crc_;
};

}  // namespace

void write_bq(const std::string& path, const BqCompressedRaster& raster) {
  ZH_TRACE_SPAN("io.write_bq", "io");
  std::ofstream os(path, std::ios::binary);
  ZH_REQUIRE_IO(os.is_open(), "cannot open for write: ", path);
  os.write(kMagic.data(), kMagic.size());
  write_pod(os, kVersion);

  const TilingScheme& tiling = raster.tiling();
  CrcWriter header(os);
  header.pod(tiling.raster_rows());
  header.pod(tiling.raster_cols());
  header.pod(tiling.tile_size());
  header.pod(raster.transform().origin_x());
  header.pod(raster.transform().origin_y());
  header.pod(raster.transform().cell_w());
  header.pod(raster.transform().cell_h());
  header.pod(static_cast<std::uint64_t>(tiling.tile_count()));
  write_pod(os, header.crc());

  CrcWriter body(os);
  for (TileId id = 0; id < tiling.tile_count(); ++id) {
    const BqEncodedTile& t = raster.tile(id);
    body.pod(t.rows);
    body.pod(t.cols);
    body.pod(t.plane_mask);
    body.pod(static_cast<std::uint32_t>(t.payload.size()));
    body.bytes(t.payload.data(), t.payload.size());
  }
  write_pod(os, body.crc());
  os.flush();  // surface an error in the last buffered block here
  ZH_REQUIRE_IO(os.good(), "write failed: ", path);
}

BqCompressedRaster read_bq(const std::string& path) {
  ZH_TRACE_SPAN("io.read_bq", "io");
  std::ifstream is(path, std::ios::binary);
  ZH_REQUIRE_IO(is.is_open(), "cannot open for read: ", path);
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  ZH_REQUIRE_IO(!ec, "cannot stat ", path);

  std::array<char, 4> magic{};
  is.read(magic.data(), magic.size());
  ZH_REQUIRE_IO(is.good(), "unexpected end of bq stream in ", path);
  ZH_REQUIRE_IO(magic != kLegacyMagic, "legacy checksum-free ZBQ1 file: ",
                path, " (re-encode with `zhist encode` to upgrade)");
  ZH_REQUIRE_IO(magic == kMagic, "bad bq magic in ", path);
  std::uint32_t version{};
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  ZH_REQUIRE_IO(is.good(), "unexpected end of bq stream in ", path);
  ZH_REQUIRE_IO(version == kVersion, "unsupported bq version ", version,
                " in ", path, " (this build reads version ", kVersion, ")");

  CrcReader header(is, path);
  const auto rows = header.pod<std::int64_t>();
  const auto cols = header.pod<std::int64_t>();
  const auto tile_size = header.pod<std::int64_t>();
  const auto ox = header.pod<double>();
  const auto oy = header.pod<double>();
  const auto cw = header.pod<double>();
  const auto ch = header.pod<double>();
  const auto count = header.pod<std::uint64_t>();
  const auto header_crc = [&] {
    std::uint32_t v{};
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    ZH_REQUIRE_IO(is.good(), "unexpected end of bq stream in ", path);
    return v;
  }();
  ZH_REQUIRE_IO(header.crc() == header_crc, "bq header CRC mismatch in ",
                path, " (corrupted or truncated file)");
  ZH_REQUIRE_IO(rows >= 0 && cols >= 0 && tile_size > 0,
                "bad bq header dims in ", path);
  ZH_REQUIRE_IO(cw > 0 && ch > 0, "bad bq geotransform in ", path);
  const TilingScheme tiling(rows, cols, tile_size);
  ZH_REQUIRE_IO(count == tiling.tile_count(),
                "bq tile count mismatch in ", path);
  // Every tile record needs at least its fixed fields; reject absurd
  // counts before the read loop so truncated files fail fast.
  ZH_REQUIRE_IO(count <= file_size / kTileRecordBytes,
                "bq tile count ", count, " impossible for ", file_size,
                "-byte file ", path);

  CrcReader body(is, path);
  std::vector<BqEncodedTile> tiles(count);
  for (auto& t : tiles) {
    t.rows = body.pod<std::uint32_t>();
    t.cols = body.pod<std::uint32_t>();
    t.plane_mask = body.pod<std::uint16_t>();
    const auto payload = body.pod<std::uint32_t>();
    // A payload cannot be larger than the file that holds it.
    ZH_REQUIRE_IO(payload <= file_size, "bq tile payload size ", payload,
                  " exceeds file size in ", path);
    t.payload.resize(payload);
    body.bytes(t.payload.data(), payload);
  }
  const auto payload_crc = [&] {
    std::uint32_t v{};
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    ZH_REQUIRE_IO(is.good(), "unexpected end of bq stream in ", path);
    return v;
  }();
  ZH_REQUIRE_IO(body.crc() == payload_crc, "bq payload CRC mismatch in ",
                path, " (corrupted tile data)");
  return BqCompressedRaster::from_tiles(
      tiling, GeoTransform(ox, oy, cw, ch), std::move(tiles), path);
}

}  // namespace zh
