#include "data/dem_synth.hpp"

#include <cmath>

#include "device/thread_pool.hpp"

namespace zh {

namespace {

// SplitMix64: statistically solid 64-bit mixer, used as a lattice hash.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Lattice value in [0, 1) at integer coordinates for one octave.
double lattice(std::int64_t ix, std::int64_t iy, std::uint64_t seed,
               int octave) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(ix) * 0x8da6b343ull ^
                          static_cast<std::uint64_t>(iy) * 0xd8163841ull ^
                          seed ^ (static_cast<std::uint64_t>(octave) << 56));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double smoothstep(double t) { return t * t * (3.0 - 2.0 * t); }

// Bilinear value noise at (x, y) for one octave (frequency pre-applied).
double value_noise(double x, double y, std::uint64_t seed, int octave) {
  const double fx = std::floor(x);
  const double fy = std::floor(y);
  const auto ix = static_cast<std::int64_t>(fx);
  const auto iy = static_cast<std::int64_t>(fy);
  const double tx = smoothstep(x - fx);
  const double ty = smoothstep(y - fy);
  const double v00 = lattice(ix, iy, seed, octave);
  const double v10 = lattice(ix + 1, iy, seed, octave);
  const double v01 = lattice(ix, iy + 1, seed, octave);
  const double v11 = lattice(ix + 1, iy + 1, seed, octave);
  const double a = v00 + (v10 - v00) * tx;
  const double b = v01 + (v11 - v01) * tx;
  return a + (b - a) * ty;
}

}  // namespace

CellValue dem_elevation(double x, double y, const DemParams& params) {
  double amp = 1.0;
  double freq = 1.0 / params.base_scale;
  double sum = 0.0;
  double norm = 0.0;
  for (int o = 0; o < params.octaves; ++o) {
    sum += amp * value_noise(x * freq, y * freq, params.seed, o);
    norm += amp;
    amp *= params.persistence;
    freq *= 2.0;
  }
  const double v = sum / norm;  // in [0, 1)
  return static_cast<CellValue>(v * (static_cast<double>(params.max_value) + 1.0));
}

DemRaster generate_dem(std::int64_t rows, std::int64_t cols,
                       const GeoTransform& transform,
                       const DemParams& params) {
  DemRaster raster(rows, cols, transform);
  ThreadPool::global().parallel_for(
      static_cast<std::size_t>(rows), [&](std::size_t b, std::size_t e) {
        for (std::size_t r = b; r < e; ++r) {
          for (std::int64_t c = 0; c < cols; ++c) {
            const GeoPoint p =
                transform.cell_center(static_cast<std::int64_t>(r), c);
            raster.at(static_cast<std::int64_t>(r), c) =
                dem_elevation(p.x, p.y, params);
          }
        }
      });
  return raster;
}

}  // namespace zh
