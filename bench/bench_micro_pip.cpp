// Micro-benchmarks of the ray-crossing point-in-polygon kernel (Fig. 5's
// inner loop): throughput vs polygon vertex count, object layout vs the
// flattened SoA layout the device kernels consume, and the per-tile
// histogramming kernel of Fig. 2.
#include <benchmark/benchmark.h>

#include <random>

#include "core/step1_tile_hist.hpp"
#include "geom/pip.hpp"
#include "geom/soa.hpp"
#include "test_util_bench.hpp"

namespace {

using namespace zh;

void BM_PipObjectForm(benchmark::State& state) {
  std::mt19937 rng(1);
  const Polygon poly = benchdata::star_polygon(
      rng, 5.0, 5.0, 4.0, static_cast<int>(state.range(0)));
  std::uniform_real_distribution<double> coord(0.0, 10.0);
  std::vector<GeoPoint> pts(4096);
  for (auto& p : pts) p = {coord(rng), coord(rng)};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(point_in_polygon(poly, pts[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipObjectForm)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_PipSoaForm(benchmark::State& state) {
  std::mt19937 rng(1);
  PolygonSet set;
  set.add(benchdata::star_polygon(rng, 5.0, 5.0, 4.0,
                                  static_cast<int>(state.range(0))));
  const PolygonSoA soa = PolygonSoA::build(set);
  std::uniform_real_distribution<double> coord(0.0, 10.0);
  std::vector<GeoPoint> pts(4096);
  for (auto& p : pts) p = {coord(rng), coord(rng)};
  std::size_t i = 0;
  for (auto _ : state) {
    const GeoPoint& p = pts[i++ & 4095];
    benchmark::DoNotOptimize(point_in_polygon_soa(soa, 0, p.x, p.y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipSoaForm)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_PipMultiRing(benchmark::State& state) {
  std::mt19937 rng(2);
  PolygonSet set;
  set.add(benchdata::star_polygon(rng, 5.0, 5.0, 4.0,
                                  static_cast<int>(state.range(0)),
                                  /*with_hole=*/true));
  const PolygonSoA soa = PolygonSoA::build(set);
  std::uniform_real_distribution<double> coord(0.0, 10.0);
  std::size_t i = 0;
  std::vector<GeoPoint> pts(4096);
  for (auto& p : pts) p = {coord(rng), coord(rng)};
  for (auto _ : state) {
    const GeoPoint& p = pts[i++ & 4095];
    benchmark::DoNotOptimize(point_in_polygon_soa(soa, 0, p.x, p.y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipMultiRing)->Arg(16)->Arg(64)->Arg(256);

void BM_TileHistogram(benchmark::State& state) {
  const std::int64_t tile = state.range(0);
  Device dev;
  DemRaster raster(tile * 4, tile * 4);
  std::mt19937 rng(3);
  std::uniform_int_distribution<std::uint32_t> dist(0, 4999);
  for (CellValue& v : raster.cells()) v = static_cast<CellValue>(dist(rng));
  const TilingScheme tiling(raster.rows(), raster.cols(), tile);
  for (auto _ : state) {
    const HistogramSet h = tile_histograms(dev, raster, tiling, 5000);
    benchmark::DoNotOptimize(h.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * raster.cell_count());
}
BENCHMARK(BM_TileHistogram)->Arg(60)->Arg(120)->Arg(360);

}  // namespace

BENCHMARK_MAIN();
