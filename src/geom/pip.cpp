#include "geom/pip.hpp"

namespace zh {

namespace {

// One ray-crossing edge update, shared by both implementations so the
// object form and the SoA form agree bit-for-bit on every input. Edge
// runs from (x0,y0) to (x1,y1); point is (px,py). Returns true if the
// horizontal ray from the point crosses this edge.
inline bool edge_crosses(double x0, double y0, double x1, double y1,
                         double px, double py) {
  const std::optional<double> x = scanline_crossing(x0, y0, x1, y1, py);
  return x && px < *x;
}

}  // namespace

bool point_in_ring(const Ring& ring, const GeoPoint& p) {
  bool in = false;
  const std::size_t n = ring.size();
  for (std::size_t i = 0; i < n; ++i) {
    const GeoPoint& a = ring[i];
    const GeoPoint& b = ring[(i + 1) % n];
    if (edge_crosses(a.x, a.y, b.x, b.y, p.x, p.y)) in = !in;
  }
  return in;
}

bool point_in_polygon(const Polygon& poly, const GeoPoint& p) {
  bool in = false;
  for (const Ring& r : poly.rings()) {
    if (point_in_ring(r, p)) in = !in;
  }
  return in;
}

int winding_number(const Polygon& poly, const GeoPoint& p) {
  int wn = 0;
  for (const Ring& r : poly.rings()) {
    const std::size_t n = r.size();
    for (std::size_t i = 0; i < n; ++i) {
      const GeoPoint& a = r[i];
      const GeoPoint& b = r[(i + 1) % n];
      // is_left > 0: p is left of the directed edge a->b.
      const double is_left =
          (b.x - a.x) * (p.y - a.y) - (p.x - a.x) * (b.y - a.y);
      if (a.y <= p.y) {
        if (b.y > p.y && is_left > 0) ++wn;   // upward crossing
      } else {
        if (b.y <= p.y && is_left < 0) --wn;  // downward crossing
      }
    }
  }
  return wn;
}

bool point_in_polygon_soa_raw(const double* x_v, const double* y_v,
                              std::uint32_t p_f, std::uint32_t p_t, double x,
                              double y) {
  // Fig. 5 of the paper, verbatim: iterate edges (j, j+1); when the head
  // vertex is the (0,0) ring separator, skip this edge and the next.
  bool in_polygon = false;
  for (std::uint32_t j = p_f; j + 1 < p_t; ++j) {
    const double x0 = x_v[j];
    const double y0 = y_v[j];
    const double x1 = x_v[j + 1];
    const double y1 = y_v[j + 1];
    if (x1 == 0.0 && y1 == 0.0) {
      ++j;  // also skip the edge that would start at the separator
      continue;
    }
    if (edge_crosses(x0, y0, x1, y1, x, y)) in_polygon = !in_polygon;
  }
  return in_polygon;
}

std::uint32_t soa_tested_edges(const double* x_v, const double* y_v,
                               std::uint32_t p_f, std::uint32_t p_t) {
  // Mirrors the skip structure of point_in_polygon_soa_raw exactly, so
  // the count is per-evaluation exact for any separator placement.
  std::uint32_t n = 0;
  for (std::uint32_t j = p_f; j + 1 < p_t; ++j) {
    if (x_v[j + 1] == 0.0 && y_v[j + 1] == 0.0) {
      ++j;
      continue;
    }
    ++n;
  }
  return n;
}

bool point_in_polygon_soa(const PolygonSoA& soa, PolygonId pid, double x,
                          double y) {
  const auto [p_f, p_t] = soa.vertex_range(pid);
  return point_in_polygon_soa_raw(soa.x_v().data(), soa.y_v().data(), p_f,
                                  p_t, x, y);
}

}  // namespace zh
