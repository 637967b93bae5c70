// BQ-Tree compression study (Sec. IV.A-IV.B claims): terrain rasters
// compress to a small fraction of raw size (the paper: 40 GB -> 7.3 GB,
// ~18%), decode throughput supports per-tile decompression as a pipeline
// step, and the compressed upload beats the raw upload at PCIe rates
// even after paying the decode cost.
#include <cstdio>

#include "bench_util.hpp"
#include "bqtree/compressed_raster.hpp"
#include "common/timer.hpp"
#include "data/dem_synth.hpp"
#include "device/device.hpp"

int main() {
  using namespace zh;
  const int edge = bench::env_int("ZH_EDGE", 3600);  // cells per side
  const std::int64_t tile = bench::env_int("ZH_TILE", 360);

  std::printf("generating %dx%d fBm DEM...\n", edge, edge);
  const DemRaster dem = generate_dem(
      edge, edge, GeoTransform(-100.0, 40.0, 1.0 / 3600.0, 1.0 / 3600.0));

  bench::print_header("BQ-Tree compression on synthetic SRTM-like DEM");
  Timer enc;
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, tile);
  const double enc_s = enc.seconds();
  const double raw_mb = static_cast<double>(comp.raw_bytes()) / 1e6;
  const double comp_mb = static_cast<double>(comp.compressed_bytes()) / 1e6;
  std::printf("  raw size:        %10.1f MB\n", raw_mb);
  std::printf("  compressed:      %10.1f MB  (%.1f%% of raw; paper: "
              "~18%% on real SRTM)\n",
              comp_mb, 100.0 * comp.compression_ratio());
  std::printf("  encode:          %10.2f s   (%.0f Mcells/s)\n", enc_s,
              static_cast<double>(dem.cell_count()) / enc_s / 1e6);

  Timer dec;
  const DemRaster back = comp.decode_all();
  const double dec_s = dec.seconds();
  std::printf("  decode:          %10.2f s   (%.0f Mcells/s)\n", dec_s,
              static_cast<double>(dem.cell_count()) / dec_s / 1e6);
  std::printf("  roundtrip exact: %s\n",
              std::equal(back.cells().begin(), back.cells().end(),
                         dem.cells().begin())
                  ? "yes"
                  : "NO -- BUG");

  bench::print_header("Transfer tradeoff at PCIe 2.5 GB/s (paper's "
                      "Sec. IV.B arithmetic)");
  const double pcie_bytes_s =
      DeviceProfile::gtx_titan().pcie_bandwidth_gbs * 1e9;
  const double t_raw = static_cast<double>(comp.raw_bytes()) / pcie_bytes_s;
  const double t_comp =
      static_cast<double>(comp.compressed_bytes()) / pcie_bytes_s;
  std::printf("  upload raw:                 %8.3f s\n", t_raw);
  std::printf("  upload compressed:          %8.3f s\n", t_comp);
  std::printf("  upload saving:              %8.3f s\n", t_raw - t_comp);
  std::printf(
      "  -> compression pays off whenever device-side decode costs less\n"
      "     than the saving (the paper's GPU decodes the full 20.1 G-cell\n"
      "     raster in ~9 s vs a ~13 s transfer saving at full scale).\n");

  // Random noise control: incompressible input must not shrink.
  bench::print_header("Control: incompressible input");
  DemRaster noise(512, 512);
  std::uint32_t state = 1;
  for (CellValue& v : noise.cells()) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<CellValue>(state >> 16);
  }
  const BqCompressedRaster ncomp = BqCompressedRaster::encode(noise, 128);
  std::printf("  white-noise ratio: %.2f (expected ~1 or above)\n",
              ncomp.compression_ratio());
  return 0;
}
