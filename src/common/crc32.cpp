#include "common/crc32.hpp"

#include <array>

namespace zh {

namespace {

// Slicing-by-16 tables: kTables[0] is the bytewise table of the reflected
// polynomial; kTables[k][b] is the CRC contribution of byte b followed by
// k zero bytes, so sixteen lookups fold sixteen input bytes in one step.
constexpr std::size_t kSlices = 16;

using Tables = std::array<std::array<std::uint32_t, 256>, kSlices>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < kSlices; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

void Crc32::update(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state_;
  // The running CRC meets the first four bytes of each 16-byte block; the
  // other twelve enter through their tables alone. Bytes are read one at
  // a time, so the result does not depend on the host's byte order.
  for (; size >= kSlices; size -= kSlices, p += kSlices) {
    c = kTables[15][(c ^ p[0]) & 0xFFu] ^
        kTables[14][((c >> 8) ^ p[1]) & 0xFFu] ^
        kTables[13][((c >> 16) ^ p[2]) & 0xFFu] ^
        kTables[12][((c >> 24) ^ p[3]) & 0xFFu] ^ kTables[11][p[4]] ^
        kTables[10][p[5]] ^ kTables[9][p[6]] ^ kTables[8][p[7]] ^
        kTables[7][p[8]] ^ kTables[6][p[9]] ^ kTables[5][p[10]] ^
        kTables[4][p[11]] ^ kTables[3][p[12]] ^ kTables[2][p[13]] ^
        kTables[1][p[14]] ^ kTables[0][p[15]];
  }
  for (; size > 0; --size, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(const void* data, std::size_t size) {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

}  // namespace zh
