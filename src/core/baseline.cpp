#include "core/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "device/thread_pool.hpp"
#include "geom/pip.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

void bin_cell(std::span<BinCount> hist, CellValue v, BinIndex bins,
              std::optional<CellValue> nodata) {
  if (nodata && v == *nodata) return;
  hist[bin_index(v, bins)] += 1;
}

// Per-polygon PIP sweep over a cell window (the whole raster for the
// naive baseline, the MBB window for the filtered one).
void sweep_window(const DemRaster& raster, const Polygon& poly,
                  const CellWindow& w, BinIndex bins,
                  std::span<BinCount> hist) {
  const std::optional<CellValue> nodata = raster.nodata();
  for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
    for (std::int64_t c = w.col0; c < w.col0 + w.cols; ++c) {
      const GeoPoint center = raster.transform().cell_center(r, c);
      if (point_in_polygon(poly, center)) {
        bin_cell(hist, raster.at(r, c), bins, nodata);
      }
    }
  }
}

// Clamp a polygon MBB to the raster's cell index space.
CellWindow mbb_window(const DemRaster& raster, const GeoBox& mbr) {
  const GeoTransform& t = raster.transform();
  std::int64_t c0 = std::clamp<std::int64_t>(t.x_to_col(mbr.min_x), 0,
                                             raster.cols() - 1);
  std::int64_t c1 = std::clamp<std::int64_t>(t.x_to_col(mbr.max_x), 0,
                                             raster.cols() - 1);
  std::int64_t r0 = std::clamp<std::int64_t>(t.y_to_row(mbr.max_y), 0,
                                             raster.rows() - 1);
  std::int64_t r1 = std::clamp<std::int64_t>(t.y_to_row(mbr.min_y), 0,
                                             raster.rows() - 1);
  return CellWindow{r0, c0, r1 - r0 + 1, c1 - c0 + 1};
}

}  // namespace

HistogramSet zonal_naive(const DemRaster& raster, const PolygonSet& polygons,
                         BinIndex bins) {
  HistogramSet hist(polygons.size(), bins);
  if (raster.cell_count() == 0) return hist;
  ZH_TRACE_SPAN("baseline.naive", "pipeline");
  ThreadPool::global().parallel_for(
      polygons.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const CellWindow whole{0, 0, raster.rows(), raster.cols()};
          sweep_window(raster, polygons[static_cast<PolygonId>(i)], whole,
                       bins, hist.row(i));
        }
      });
  return hist;
}

HistogramSet zonal_mbb_filter(const DemRaster& raster,
                              const PolygonSet& polygons, BinIndex bins) {
  HistogramSet hist(polygons.size(), bins);
  if (raster.cell_count() == 0) return hist;
  ZH_TRACE_SPAN("baseline.mbb_filter", "pipeline");
  const GeoBox raster_ext = raster.extent();
  ThreadPool::global().parallel_for(
      polygons.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const Polygon& poly = polygons[static_cast<PolygonId>(i)];
          const GeoBox mbr = poly.mbr();
          if (!raster_ext.intersects(mbr)) continue;
          sweep_window(raster, poly, mbb_window(raster, mbr), bins,
                       hist.row(i));
        }
      });
  return hist;
}

HistogramSet zonal_scanline(const DemRaster& raster,
                            const PolygonSet& polygons, BinIndex bins) {
  HistogramSet hist(polygons.size(), bins);
  if (raster.cell_count() == 0) return hist;
  ZH_TRACE_SPAN("baseline.scanline", "pipeline");
  const GeoTransform& t = raster.transform();
  const GeoBox raster_ext = raster.extent();
  const std::optional<CellValue> nodata = raster.nodata();

  ThreadPool::global().parallel_for(
      polygons.size(), [&](std::size_t pb, std::size_t pe) {
        std::vector<double> xints;
        for (std::size_t i = pb; i < pe; ++i) {
          const Polygon& poly = polygons[static_cast<PolygonId>(i)];
          const GeoBox mbr = poly.mbr();
          if (!raster_ext.intersects(mbr)) continue;
          const CellWindow w = mbb_window(raster, mbr);
          auto row_hist = hist.row(i);

          for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
            const double py = t.cell_center(r, 0).y;

            // Gather the x-intersections of this scanline with every
            // edge, by the ray-crossing test's own rule so results match
            // PIP exactly.
            xints.clear();
            for (const Ring& ring : poly.rings()) {
              const std::size_t n = ring.size();
              for (std::size_t k = 0; k < n; ++k) {
                const GeoPoint& a = ring[k];
                const GeoPoint& b = ring[(k + 1) % n];
                if (const std::optional<double> x =
                        scanline_crossing(a.x, a.y, b.x, b.y, py)) {
                  xints.push_back(*x);
                }
              }
            }
            if (xints.empty()) continue;
            std::sort(xints.begin(), xints.end());

            // A cell center px is interior iff the number of
            // intersections strictly greater than px is odd. Sweep the
            // row once with a cursor into the sorted intersection list.
            std::size_t idx = 0;
            const std::size_t m = xints.size();
            for (std::int64_t c = w.col0; c < w.col0 + w.cols; ++c) {
              const double px = t.cell_center(r, c).x;
              while (idx < m && xints[idx] <= px) ++idx;
              if ((m - idx) % 2 == 1) {
                bin_cell(row_hist, raster.at(r, c), bins, nodata);
              }
            }
          }
        }
      });
  return hist;
}

}  // namespace zh
