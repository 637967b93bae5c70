// Core integer/id types shared by every zonalhist subsystem.
//
// The paper's kernels (Figs. 2/4/5) operate on unsigned 16-bit raster cell
// values ("ushort v = raw_d[s]") and 32-bit unsigned counters/indices; we
// keep the same widths so memory-footprint arithmetic (e.g. the 50 MB
// per-tile-histogram budget computed in Sec. III.A) carries over unchanged.
#pragma once

#include <cstddef>
#include <cstdint>

namespace zh {

/// Raster cell value type (elevation in meters for SRTM-style DEMs).
using CellValue = std::uint16_t;

/// Histogram bin count / bin index type.
using BinIndex = std::uint32_t;

/// Count accumulated in a single histogram bin (paper uses 4-byte ints).
using BinCount = std::uint32_t;

/// Wide count for cross-polygon/cross-rank aggregates that may exceed 2^32.
using BinCount64 = std::uint64_t;

/// Identifier of a raster tile within a tiling scheme (row-major).
using TileId = std::uint32_t;

/// Identifier of a polygon (zone) within a polygon collection.
using PolygonId = std::uint32_t;

/// Identifier of a cluster rank (simulated compute node).
using RankId = std::uint32_t;

/// Relationship between a raster tile and a polygon, as produced by the
/// Step-2 spatial filter (Sec. III.B): the only three cases the MBB
/// rasterization can yield.
enum class TileRelation : std::uint8_t {
  kOutside = 0,   ///< tile shares no area with the polygon; skipped entirely
  kInside = 1,    ///< tile completely within: per-tile histogram is reusable
  kIntersect = 2  ///< tile crosses the boundary: needs per-cell PIP (Step 4)
};

/// Integer ceiling division; used for grid/block sizing everywhere.
constexpr std::size_t div_up(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

}  // namespace zh
