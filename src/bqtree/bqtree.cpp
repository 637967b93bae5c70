#include "bqtree/bqtree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "bqtree/bitstream.hpp"

namespace zh {

namespace {

constexpr unsigned kPlanes = 16;

// Summed-area table over one bitplane: sat(r, c) = number of set bits in
// the rectangle [0,r) x [0,c). Dimensions (rows+1) x (cols+1).
class PlaneSat {
 public:
  PlaneSat(std::span<const CellValue> cells, std::uint32_t rows,
           std::uint32_t cols, unsigned plane)
      : cols1_(cols + 1), sat_((rows + 1) * (cols + 1), 0) {
    const CellValue mask = static_cast<CellValue>(1u << plane);
    for (std::uint32_t r = 0; r < rows; ++r) {
      std::uint32_t row_sum = 0;
      for (std::uint32_t c = 0; c < cols; ++c) {
        row_sum += (cells[static_cast<std::size_t>(r) * cols + c] & mask)
                       ? 1u
                       : 0u;
        sat_[idx(r + 1, c + 1)] = sat_[idx(r, c + 1)] + row_sum;
      }
    }
  }

  /// Set-bit count in rows [r0, r1) x cols [c0, c1).
  [[nodiscard]] std::uint32_t count(std::uint32_t r0, std::uint32_t c0,
                                    std::uint32_t r1,
                                    std::uint32_t c1) const {
    return sat_[idx(r1, c1)] - sat_[idx(r0, c1)] - sat_[idx(r1, c0)] +
           sat_[idx(r0, c0)];
  }

 private:
  [[nodiscard]] std::size_t idx(std::uint32_t r, std::uint32_t c) const {
    return static_cast<std::size_t>(r) * cols1_ + c;
  }
  std::uint32_t cols1_;
  std::vector<std::uint32_t> sat_;
};

struct EncodeCtx {
  std::span<const CellValue> cells;
  std::uint32_t rows, cols;
  CellValue mask;
  const PlaneSat* sat;
  BitWriter* out;
};

// Encode the quadrant with top-left (r0, c0) and edge `edge`. Quadrants
// partially or fully outside the tile are clipped; fully-outside
// quadrants encode as all-zero so decode can stay shape-agnostic.
void encode_quad(const EncodeCtx& ctx, std::uint32_t r0, std::uint32_t c0,
                 std::uint32_t edge) {
  const std::uint32_t r1 = std::min(r0 + edge, ctx.rows);
  const std::uint32_t c1 = std::min(c0 + edge, ctx.cols);
  if (r0 >= r1 || c0 >= c1) {
    ctx.out->put_bits(0b00, 2);
    return;
  }
  const std::uint32_t ones = ctx.sat->count(r0, c0, r1, c1);
  const std::uint32_t area = (r1 - r0) * (c1 - c0);
  if (ones == 0) {
    ctx.out->put_bits(0b00, 2);
    return;
  }
  if (ones == area) {
    ctx.out->put_bits(0b01, 2);
    return;
  }
  ctx.out->put_bits(0b10, 2);
  if (edge <= kBqLeafEdge) {
    // Literal: in-bounds cells of the quadrant, row-major.
    for (std::uint32_t r = r0; r < r1; ++r) {
      for (std::uint32_t c = c0; c < c1; ++c) {
        ctx.out->put(
            (ctx.cells[static_cast<std::size_t>(r) * ctx.cols + c] &
             ctx.mask) != 0);
      }
    }
    return;
  }
  const std::uint32_t half = edge / 2;
  encode_quad(ctx, r0, c0, half);
  encode_quad(ctx, r0, c0 + half, half);
  encode_quad(ctx, r0 + half, c0, half);
  encode_quad(ctx, r0 + half, c0 + half, half);
}

// Literal rows are written four cells at a time: kRowLanes[n] has lane j
// all ones when bit 3 - j of the row's nibble n is set (the first cell
// is the top bit), with lane j where cell j of four consecutive cells
// lands when they are copied into one uint64_t.
static_assert(kBqLeafEdge == 4, "a literal row must fill four lanes");
static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "lane order needs a little- or big-endian host");

constexpr std::array<std::uint64_t, 16> make_row_lanes() {
  std::array<std::uint64_t, 16> lanes{};
  for (unsigned n = 0; n < 16; ++n) {
    for (unsigned j = 0; j < 4; ++j) {
      if (((n >> (3u - j)) & 1u) == 0) continue;
      const unsigned lane =
          std::endian::native == std::endian::little ? j : 3u - j;
      lanes[n] |= std::uint64_t{0xFFFF} << (16u * lane);
    }
  }
  return lanes;
}

constexpr std::array<std::uint64_t, 16> kRowLanes = make_row_lanes();

// Decodes the bitplanes of one tile into its pre-cleared cells, one
// plane's quadtree after the other, reading each node with one call.
class QuadDecoder {
 public:
  QuadDecoder(std::span<CellValue> cells, std::uint32_t rows,
              std::uint32_t cols, BitReader& in)
      : cells_(cells), rows_(rows), cols_(cols), in_(in) {}

  void plane(CellValue mask, std::uint32_t edge) {
    mask_ = mask;
    lanes_ = std::uint64_t{mask} * 0x0001000100010001ull;
    quad(0, 0, edge);
  }

 private:
  void quad(std::uint32_t r0, std::uint32_t c0, std::uint32_t edge) {
    switch (in_.get_bits(2)) {
      case 0b00:
        return;  // all zero: output pre-cleared
      case 0b01:
        fill(r0, c0, edge);
        return;
      case 0b10:
        if (edge <= kBqLeafEdge) {
          leaf(r0, c0);
        } else {
          const std::uint32_t half = edge / 2;
          quad(r0, c0, half);
          quad(r0, c0 + half, half);
          quad(r0 + half, c0, half);
          quad(r0 + half, c0 + half, half);
        }
        return;
      default:
        throw IoError("corrupt BQ-Tree stream: reserved node code 11");
    }
  }

  // All-ones quadrant: OR the mask into its in-bounds span of each row.
  void fill(std::uint32_t r0, std::uint32_t c0, std::uint32_t edge) {
    const std::uint32_t r1 = std::min(r0 + edge, rows_);
    const std::uint32_t c1 = std::min(c0 + edge, cols_);
    for (std::uint32_t r = r0; r < r1; ++r) {
      CellValue* row = cells_.data() + static_cast<std::size_t>(r) * cols_;
      for (std::uint32_t c = c0; c < c1; ++c) row[c] |= mask_;
    }
  }

  // Literal leaf: the in-bounds cells' bits, row-major, in one read.
  void leaf(std::uint32_t r0, std::uint32_t c0) {
    const std::uint32_t r1 = std::min(r0 + kBqLeafEdge, rows_);
    const std::uint32_t c1 = std::min(c0 + kBqLeafEdge, cols_);
    if (r0 >= r1 || c0 >= c1) return;  // outside the tile: no bits
    const std::uint32_t width = c1 - c0;
    std::uint32_t left = (r1 - r0) * width;  // bits not yet written
    const std::uint32_t bits = in_.get_bits(left);
    for (std::uint32_t r = r0; r < r1; ++r) {
      CellValue* row =
          cells_.data() + static_cast<std::size_t>(r) * cols_ + c0;
      if (width == kBqLeafEdge) {
        left -= kBqLeafEdge;
        std::uint64_t word = 0;
        std::memcpy(&word, row, sizeof word);
        word |= kRowLanes[(bits >> left) & 0xFu] & lanes_;
        std::memcpy(row, &word, sizeof word);
      } else {
        // A row the tile's right edge clips, cell by cell.
        for (std::uint32_t c = 0; c < width; ++c) {
          if ((bits >> --left) & 1u) row[c] |= mask_;
        }
      }
    }
  }

  std::span<CellValue> cells_;
  std::uint32_t rows_, cols_;
  BitReader& in_;
  CellValue mask_ = 0;
  std::uint64_t lanes_ = 0;  // mask_ in each of four 16-bit lanes
};

std::uint32_t root_edge(std::uint32_t rows, std::uint32_t cols) {
  const std::uint32_t m = std::max(rows, cols);
  return std::bit_ceil(std::max<std::uint32_t>(m, kBqLeafEdge));
}

}  // namespace

BqEncodedTile bq_encode(std::span<const CellValue> cells, std::uint32_t rows,
                        std::uint32_t cols) {
  ZH_REQUIRE(cells.size() == static_cast<std::size_t>(rows) * cols,
             "cell span size does not match dims");
  BqEncodedTile tile;
  tile.rows = rows;
  tile.cols = cols;
  if (rows == 0 || cols == 0) return tile;

  // Plane mask: skip planes with no set bits anywhere in the tile.
  CellValue any = 0;
  for (const CellValue v : cells) any |= v;

  BitWriter writer;
  const std::uint32_t edge = root_edge(rows, cols);
  for (unsigned p = 0; p < kPlanes; ++p) {
    const CellValue mask = static_cast<CellValue>(1u << p);
    if ((any & mask) == 0) continue;
    tile.plane_mask |= mask;
    PlaneSat sat(cells, rows, cols, p);
    EncodeCtx ctx{cells, rows, cols, mask, &sat, &writer};
    encode_quad(ctx, 0, 0, edge);
  }
  tile.payload = writer.take();
  return tile;
}

void bq_decode(const BqEncodedTile& tile, std::span<CellValue> out) {
  ZH_REQUIRE(out.size() ==
                 static_cast<std::size_t>(tile.rows) * tile.cols,
             "output span size does not match dims");
  std::fill(out.begin(), out.end(), CellValue{0});
  if (tile.rows == 0 || tile.cols == 0) return;

  BitReader reader(tile.payload);
  QuadDecoder decoder(out, tile.rows, tile.cols, reader);
  const std::uint32_t edge = root_edge(tile.rows, tile.cols);
  for (unsigned p = 0; p < kPlanes; ++p) {
    const CellValue mask = static_cast<CellValue>(1u << p);
    if ((tile.plane_mask & mask) != 0) decoder.plane(mask, edge);
  }
}

}  // namespace zh
