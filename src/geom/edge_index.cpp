#include "geom/edge_index.hpp"

#include <algorithm>
#include <atomic>

#include "common/contracts.hpp"
#include "device/thread_pool.hpp"
#include "geom/pip.hpp"

namespace zh {

namespace {

/// Cell-center y of raster row r -- the exact expression the refiner's
/// cell_center(r, c) evaluates (y does not depend on the column), so
/// band membership below matches the query-time crossing predicate
/// bit-for-bit.
inline double scanline_y(const GeoTransform& t, std::int64_t r) {
  return t.origin_y() - (static_cast<double>(r) + 0.5) * t.cell_h();
}

/// The rows whose scanline edge (x0, y0) -> (x1, y1) crosses under
/// scanline_crossing's rule, which holds iff ymin <= scanline_y(r) < ymax.
/// scanline_y is monotone non-increasing in r, so the member rows form
/// one contiguous range below the rows above the span (scanline_y >=
/// ymax). Find its first row with a floor-based guess corrected by exact
/// comparisons (robust to floating-point drift in the guess), then walk
/// it with the rule itself.
struct RowRange {
  std::int64_t first = 0;
  std::int64_t last = -1;  ///< inclusive; first > last means empty
};

RowRange edge_row_range(const GeoTransform& t, std::int64_t raster_rows,
                        double x0, double y0, double x1, double y1) {
  RowRange out;
  if (raster_rows == 0) return out;
  const double ymax = std::max(y0, y1);
  std::int64_t lo =
      std::clamp<std::int64_t>(t.y_to_row(ymax) - 2, 0, raster_rows - 1);
  while (lo > 0 && scanline_y(t, lo - 1) < ymax) --lo;
  while (lo < raster_rows && scanline_y(t, lo) >= ymax) ++lo;
  std::int64_t hi = lo - 1;
  while (hi + 1 < raster_rows &&
         scanline_crossing(x0, y0, x1, y1, scanline_y(t, hi + 1))) {
    ++hi;
  }
  out.first = lo;
  out.last = hi;
  return out;
}

}  // namespace

EdgeIndex EdgeIndex::build(const PolygonSoA& soa,
                           const GeoTransform& transform,
                           std::int64_t raster_rows,
                           std::span<const PolygonId> zones) {
  EdgeIndex index;
  index.bands_.resize(soa.polygon_count());
  if (zones.empty()) return index;

  const double* x_v = soa.x_v().data();
  const double* y_v = soa.y_v().data();
  std::atomic<std::uint64_t> indexed{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> entries{0};

  ThreadPool::global().parallel_for(
      zones.size(), [&](std::size_t begin, std::size_t end) {
        // (tail index, row range) of each banded edge; reused across the
        // chunk's polygons.
        std::vector<std::pair<std::uint32_t, RowRange>> spans;
        std::uint64_t local_indexed = 0;
        std::uint64_t local_dropped = 0;
        std::uint64_t local_entries = 0;

        for (std::size_t i = begin; i < end; ++i) {
          const PolygonId pid = zones[i];
          ZH_DCHECK_BOUNDS(pid, index.bands_.size());
          const auto [p_f, p_t] = soa.vertex_range(pid);
          Band& band = index.bands_[pid];
          spans.clear();
          std::int64_t row_min = raster_rows;
          std::int64_t row_max = -1;

          // Same iteration shape as point_in_polygon_soa_raw: skip the
          // edge into a (0,0) ring separator and the edge out of it.
          for (std::uint32_t j = p_f; j + 1 < p_t; ++j) {
            if (x_v[j + 1] == 0.0 && y_v[j + 1] == 0.0) {
              ++j;
              local_dropped += 2;
              continue;
            }
            if (y_v[j] == y_v[j + 1]) {  // horizontal: never crosses
              ++local_dropped;
              continue;
            }
            const RowRange rr = edge_row_range(transform, raster_rows, x_v[j],
                                               y_v[j], x_v[j + 1], y_v[j + 1]);
            if (rr.first > rr.last) {
              ++local_dropped;
              continue;
            }
            spans.emplace_back(j, rr);
            ++local_indexed;
            local_entries +=
                static_cast<std::uint64_t>(rr.last - rr.first + 1);
            row_min = std::min(row_min, rr.first);
            row_max = std::max(row_max, rr.last);
          }

          if (row_max < row_min) continue;  // nothing banded
          band.row0 = row_min;
          band.rows = row_max - row_min + 1;

          // Counting sort: per-row counts -> exclusive offsets -> fill.
          band.offsets.assign(static_cast<std::size_t>(band.rows) + 1, 0);
          for (const auto& [j, rr] : spans) {
            for (std::int64_t r = rr.first; r <= rr.last; ++r) {
              ++band.offsets[static_cast<std::size_t>(r - band.row0) + 1];
            }
          }
          for (std::size_t k = 1; k < band.offsets.size(); ++k) {
            band.offsets[k] += band.offsets[k - 1];
          }
          band.edges.resize(band.offsets.back());
          std::vector<std::uint64_t> cursor(band.offsets.begin(),
                                            band.offsets.end() - 1);
          for (const auto& [j, rr] : spans) {
            for (std::int64_t r = rr.first; r <= rr.last; ++r) {
              band.edges[cursor[static_cast<std::size_t>(r - band.row0)]++] =
                  j;
            }
          }
        }
        indexed.fetch_add(local_indexed, std::memory_order_relaxed);
        dropped.fetch_add(local_dropped, std::memory_order_relaxed);
        entries.fetch_add(local_entries, std::memory_order_relaxed);
      });

  index.stats_.edges_indexed = indexed.load();
  index.stats_.edges_dropped = dropped.load();
  index.stats_.bucket_entries = entries.load();
  return index;
}

}  // namespace zh
