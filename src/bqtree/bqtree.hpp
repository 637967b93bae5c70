// Bitplane Bitmap Quadtree (BQ-Tree) codec.
//
// The paper's Step 0 (Sec. IV.A) decodes BQ-Tree-compressed rasters into
// tiles in device memory; the codec itself is from Zhang, You & Gruenwald
// (ACM-GIS 2011, the paper's ref. [21]). The idea: decompose a uint16
// raster into 16 bitplanes; each bitplane, being a binary image with
// strong spatial coherence (elevation high bits are constant over large
// areas), compresses well as a region quadtree whose uniform quadrants
// collapse to single nodes. Node code: 2 bits
//   00 all-zero quadrant     01 all-one quadrant     10 mixed
// A mixed node recurses into 4 children until the quadrant edge reaches
// kLeafEdge, where the in-bounds cells are emitted as literal bits.
// Bitplanes that are entirely zero across the tile are dropped entirely
// (a 16-bit plane mask records which are present) -- the dominant saving
// for DEM data whose values rarely exceed a few thousand meters.
//
// Uniformity checks use a per-plane summed-area table, making encoding
// O(cells * planes) instead of O(cells * planes * depth).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace zh {

/// One tile's compressed representation.
struct BqEncodedTile {
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint16_t plane_mask = 0;        ///< bit p set => plane p encoded
  std::vector<std::uint8_t> payload;   ///< concatenated plane bit streams

  [[nodiscard]] std::size_t compressed_bytes() const {
    return payload.size() + sizeof(rows) + sizeof(cols) + sizeof(plane_mask);
  }
  [[nodiscard]] std::size_t raw_bytes() const {
    return static_cast<std::size_t>(rows) * cols * sizeof(CellValue);
  }
};

/// Quadrant edge length at which literals are emitted.
inline constexpr std::uint32_t kBqLeafEdge = 4;

/// Encode a row-major rows x cols uint16 grid.
[[nodiscard]] BqEncodedTile bq_encode(std::span<const CellValue> cells,
                                      std::uint32_t rows,
                                      std::uint32_t cols);

/// Decode into `out` (must hold rows*cols values). Exact inverse of
/// bq_encode for every input. A corrupt stream (a reserved node code, or
/// a payload that ends before its plane mask's last node) raises IoError.
void bq_decode(const BqEncodedTile& tile, std::span<CellValue> out);

}  // namespace zh
