#include "io/zgrid.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

constexpr std::array<char, 4> kMagic = {'Z', 'G', 'R', 'D'};
constexpr std::uint32_t kVersion = 2;
/// rows + cols + 4 doubles + nodata flag + nodata value.
constexpr std::size_t kHeaderBytes = 8 + 8 + 4 * 8 + 1 + 2;

static_assert(std::endian::native == std::endian::little,
              "zgrid I/O assumes a little-endian host");

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Serializes the header into a flat blob so one CRC covers it whole.
class BlobWriter {
 public:
  explicit BlobWriter(std::size_t capacity) { buf_.reserve(capacity); }

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const char*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  [[nodiscard]] const std::vector<char>& bytes() const { return buf_; }

 private:
  std::vector<char> buf_;
};

class BlobReader {
 public:
  explicit BlobReader(const std::vector<char>& buf) : buf_(buf) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    ZH_REQUIRE_IO(pos_ + sizeof(T) <= buf_.size(),
                  "zgrid header blob too short");
    T v{};
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

 private:
  const std::vector<char>& buf_;
  std::size_t pos_ = 0;
};

template <typename T>
T read_pod(std::istream& is, const std::string& path) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  ZH_REQUIRE_IO(is.good(), "unexpected end of zgrid stream in ", path);
  return v;
}

}  // namespace

void write_zgrid(const std::string& path, const DemRaster& raster) {
  ZH_TRACE_SPAN("io.write_zgrid", "io");
  std::ofstream os(path, std::ios::binary);
  ZH_REQUIRE_IO(os.is_open(), "cannot open for write: ", path);
  os.write(kMagic.data(), kMagic.size());
  write_pod(os, kVersion);

  BlobWriter header(kHeaderBytes);
  header.put(raster.rows());
  header.put(raster.cols());
  header.put(raster.transform().origin_x());
  header.put(raster.transform().origin_y());
  header.put(raster.transform().cell_w());
  header.put(raster.transform().cell_h());
  header.put<std::uint8_t>(raster.nodata().has_value() ? 1 : 0);
  header.put(raster.nodata().value_or(CellValue{0}));
  os.write(header.bytes().data(),
           static_cast<std::streamsize>(header.bytes().size()));
  write_pod(os, crc32(header.bytes().data(), header.bytes().size()));

  const auto cells = raster.cells();
  os.write(reinterpret_cast<const char*>(cells.data()),
           static_cast<std::streamsize>(cells.size_bytes()));
  write_pod(os, crc32(cells.data(), cells.size_bytes()));
  os.flush();  // surface an error in the last buffered block here
  ZH_REQUIRE_IO(os.good(), "write failed: ", path);
}

DemRaster read_zgrid(const std::string& path) {
  ZH_TRACE_SPAN("io.read_zgrid", "io");
  std::ifstream is(path, std::ios::binary);
  ZH_REQUIRE_IO(is.is_open(), "cannot open for read: ", path);
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  ZH_REQUIRE_IO(!ec, "cannot stat ", path);

  std::array<char, 4> magic{};
  is.read(magic.data(), magic.size());
  ZH_REQUIRE_IO(is.good() && magic == kMagic, "bad zgrid magic in ", path);
  const auto version = read_pod<std::uint32_t>(is, path);
  ZH_REQUIRE_IO(version == kVersion, "unsupported zgrid version ", version,
                " in ", path, " (this build reads version ", kVersion,
                "; re-encode with `zhist` to upgrade)");

  std::vector<char> header(kHeaderBytes);
  is.read(header.data(), static_cast<std::streamsize>(header.size()));
  ZH_REQUIRE_IO(is.good(), "truncated zgrid header in ", path);
  const auto header_crc = read_pod<std::uint32_t>(is, path);
  ZH_REQUIRE_IO(crc32(header.data(), header.size()) == header_crc,
                "zgrid header CRC mismatch in ", path,
                " (corrupted or truncated file)");

  BlobReader blob(header);
  const auto rows = blob.get<std::int64_t>();
  const auto cols = blob.get<std::int64_t>();
  const auto ox = blob.get<double>();
  const auto oy = blob.get<double>();
  const auto cw = blob.get<double>();
  const auto ch = blob.get<double>();
  const auto has_nodata = blob.get<std::uint8_t>();
  const auto nodata = blob.get<CellValue>();
  ZH_REQUIRE_IO(rows >= 0 && cols >= 0, "negative zgrid dims in ", path);
  // Size sanity *before* allocating: the cell payload must account for
  // exactly the rest of the file, so absurd header counts cannot trigger
  // a huge allocation and truncation is caught up front.
  constexpr std::uintmax_t kOverhead =
      4 + 4 + kHeaderBytes + 4 + 4;  // magic+version+header+2 CRCs
  ZH_REQUIRE_IO(
      cols == 0 ||
          static_cast<std::uintmax_t>(rows) <=
              std::numeric_limits<std::uintmax_t>::max() /
                  static_cast<std::uintmax_t>(cols == 0 ? 1 : cols),
      "zgrid dims overflow in ", path);
  const std::uintmax_t cell_bytes = static_cast<std::uintmax_t>(rows) *
                                    static_cast<std::uintmax_t>(cols) *
                                    sizeof(CellValue);
  ZH_REQUIRE_IO(file_size == kOverhead + cell_bytes,
                "zgrid size mismatch in ", path, ": header says ", rows,
                "x", cols, " cells (", cell_bytes, " bytes) but file has ",
                file_size, " bytes");

  DemRaster raster(rows, cols, GeoTransform(ox, oy, cw, ch));
  if (has_nodata != 0) raster.set_nodata(nodata);
  auto cells = raster.cells();
  is.read(reinterpret_cast<char*>(cells.data()),
          static_cast<std::streamsize>(cells.size_bytes()));
  ZH_REQUIRE_IO(is.good(), "truncated zgrid cell data in ", path);
  const auto payload_crc = read_pod<std::uint32_t>(is, path);
  ZH_REQUIRE_IO(crc32(cells.data(), cells.size_bytes()) == payload_crc,
                "zgrid payload CRC mismatch in ", path,
                " (corrupted cell data)");
  return raster;
}

}  // namespace zh
