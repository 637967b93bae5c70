// Packed bit streams for the BQ-Tree codec.
//
// Cursor discipline (Sec. IV.A): a decoder consumes exactly the bits the
// encoder produced for a quadrant, so a read past the end of the payload
// means the stream is corrupt (truncated, or its plane mask or a node
// code altered) and raises IoError in every build.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace zh {

/// Append-only MSB-first bit writer.
class BitWriter {
 public:
  void put(bool bit) {
    if (used_ == 0) bytes_.push_back(0);
    if (bit) {
      bytes_.back() =
          static_cast<std::uint8_t>(bytes_.back() | (0x80u >> used_));
    }
    used_ = (used_ + 1u) & 7u;
  }

  /// Append the low `count` bits of `v`, most-significant first.
  void put_bits(std::uint32_t v, unsigned count) {
    ZH_REQUIRE(count <= 32, "too many bits");
    for (unsigned i = count; i-- > 0;) {
      put(((v >> i) & 1u) != 0);
    }
  }

  [[nodiscard]] std::size_t bit_count() const {
    // All index math in 64-bit: byte count widens before the *8 so streams
    // larger than 2^29 bytes cannot wrap a 32-bit intermediate.
    return static_cast<std::size_t>(bytes_.size()) * 8u -
           ((8u - used_) & 7u);
  }

  [[nodiscard]] std::vector<std::uint8_t> take() {
    used_ = 0;
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  unsigned used_ = 0;  // bits used in the last byte (0 == byte full/none)
};

/// MSB-first bit reader over a byte span. Bits are served from a 64-bit
/// window that is refilled from the span whole bytes at a time, so a read
/// of up to 32 bits costs one comparison unless the window runs low.
/// Reading past the end of the span is a corrupt stream: IoError.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool get() { return get_bits(1) != 0; }

  /// The next `count` bits, the first of them in the highest place.
  std::uint32_t get_bits(unsigned count) {
    ZH_ASSERT(count <= 32, "BitReader::get_bits: count=", count,
              " exceeds 32-bit accumulator");
    if (count > avail_) refill(count);
    // Two shifts, so that count == 0 shifts by at most 63.
    const auto v =
        static_cast<std::uint32_t>((window_ >> (63u - count)) >> 1u);
    window_ <<= count;
    avail_ -= count;
    return v;
  }

  /// Bits consumed so far.
  [[nodiscard]] std::size_t position() const { return next_ * 8u - avail_; }

 private:
  // Top the window up with the whole bytes that fit below its `avail_`
  // unread bits, then check that `count` bits are there.
  void refill(unsigned count) {
    if (bytes_.size() - next_ >= 8) {
      // Eight bytes, first byte highest, assembled from single bytes so
      // the result does not depend on the host's byte order.
      std::uint64_t word = 0;
      for (unsigned i = 0; i < 8; ++i) {
        word = (word << 8u) | bytes_[next_ + i];
      }
      const unsigned take = (64u - avail_) / 8u;  // >= 4: avail_ < 32
      window_ |= (word >> (64u - 8u * take)) << (64u - avail_ - 8u * take);
      next_ += take;
      avail_ += 8u * take;
    } else {
      for (; avail_ <= 56 && next_ < bytes_.size(); ++next_, avail_ += 8) {
        window_ |= std::uint64_t{bytes_[next_]} << (56u - avail_);
      }
    }
    if (count > avail_) {
      throw IoError(
          "corrupt BQ-Tree stream: payload ends before the last node");
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::uint64_t window_ = 0;  // unread bits from the top; zeros below them
  unsigned avail_ = 0;        // unread bits held in window_
  std::size_t next_ = 0;      // next byte of bytes_ to load
};

}  // namespace zh
